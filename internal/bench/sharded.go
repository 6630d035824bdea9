package bench

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/index/rtree"
	"repro/internal/pdf"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/uncertain"
)

// ShardedPoint is one fleet size of the horizontal-scaling experiment:
// the aggregate query and ingestion throughput of a tile-partitioned
// fleet of io-bound engines, plus the speedup over the 1-shard point
// of the same run.
type ShardedPoint struct {
	Shards         int     `json:"shards"`
	Queries        int     `json:"queries"`
	QuerySeconds   float64 `json:"query_seconds"`
	QPS            float64 `json:"qps"`
	QPSSpeedup     float64 `json:"qps_speedup"`
	Updates        int     `json:"updates"`
	UpdateSeconds  float64 `json:"update_seconds"`
	UpdatesPerSec  float64 `json:"updates_per_sec"`
	UpdatesSpeedup float64 `json:"updates_speedup"`
}

// ShardedReport is the horizontal-scaling curve: throughput versus
// shard count over one fixed workload.
type ShardedReport struct {
	Name            string         `json:"name"`
	ClientsPerShard int            `json:"clients_per_shard"`
	Points          []ShardedPoint `json:"points"`
}

// Render writes the report as an aligned text table.
func (r ShardedReport) Render(w io.Writer) {
	fmt.Fprintf(w, "== sharded: %s ==\n", r.Name)
	fmt.Fprintf(w, "%8s %9s %10s %9s %14s %9s\n",
		"shards", "queries", "qps", "speedup", "updates/sec", "speedup")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%8d %9d %10.1f %8.2fx %14.1f %8.2fx\n",
			p.Shards, p.Queries, p.QPS, p.QPSSpeedup, p.UpdatesPerSec, p.UpdatesSpeedup)
	}
	fmt.Fprintln(w)
}

// shardedFleet is one tile-partitioned fleet: an io-bound engine per
// shard holding the objects replicated to it by the ownership rule.
type shardedFleet struct {
	tiles    *shard.TileMap
	engines  []*core.Engine
	replicas map[uncertain.ID][]int
}

// shardedMove is one logical update of the ingestion trace: move (or
// insert) the object to a fresh region.
type shardedMove struct {
	id     uncertain.ID
	region geom.Rect
}

// buildShardedFleet partitions objs across n io-bound engines. The
// tile map is density-aware: tile weights are the object centers per
// tile, so a skewed dataset still splits into comparable shards. Each
// engine gets its own paged node store behind its own small buffer
// pool and latency-simulated store — the per-machine I/O budget that
// scaling out multiplies.
func buildShardedFleet(objs []*uncertain.Object, n, poolPages int, readLatency time.Duration) (*shardedFleet, error) {
	const tx, ty = 8, 4
	flat, err := shard.Uniform(dataset.WorldRect(), tx, ty, 1)
	if err != nil {
		return nil, err
	}
	weights := make([]float64, tx*ty)
	for _, o := range objs {
		weights[flat.TileOf(o.Region().Center())]++
	}
	tiles, err := shard.FromWeights(dataset.WorldRect(), tx, ty, n, weights, shard.ContiguousPartitioner{})
	if err != nil {
		return nil, err
	}

	perShard := make([][]*uncertain.Object, n)
	replicas := make(map[uncertain.ID][]int, len(objs))
	for _, o := range objs {
		reps := tiles.ShardsOverlapping(o.Region())
		replicas[o.ID] = reps
		for _, s := range reps {
			perShard[s] = append(perShard[s], o)
		}
	}
	engines := make([]*core.Engine, n)
	for s := range n {
		store := storage.NewLatencyStore(storage.NewMemStore(), readLatency, 0)
		pool := storage.NewBufferPoolShards(store, poolPages, 0)
		engines[s], err = core.NewEngine(nil, perShard[s], core.EngineOptions{
			UncertainNodeStore: rtree.NewPagedNodeStore(pool, 4*len(uncertain.PaperCatalogProbs())),
		})
		if err != nil {
			return nil, err
		}
	}
	return &shardedFleet{tiles: tiles, engines: engines, replicas: replicas}, nil
}

// evaluate scatter-gathers one request across the fleet: fan to the
// shards whose tiles intersect the guard region, merge with the
// owner-dedup rule (replicas answer bit-identically, keep-first).
func (f *shardedFleet) evaluate(ctx context.Context, req core.Request, guard geom.Rect) (int, error) {
	targets := f.tiles.ShardsOverlapping(guard)
	if len(targets) == 1 {
		resp, err := f.engines[targets[0]].Evaluate(ctx, req)
		return len(resp.Matches), err
	}
	seen := make(map[uncertain.ID]bool)
	for _, s := range targets {
		resp, err := f.engines[s].Evaluate(ctx, req)
		if err != nil {
			return 0, err
		}
		for _, m := range resp.Matches {
			seen[m.ID] = true
		}
	}
	return len(seen), nil
}

// replay drives the query batch through the fleet with a fixed number
// of concurrent clients per shard — the serving capacity each member
// contributes — and returns the elapsed wall-clock.
func (f *shardedFleet) replay(reqs []core.Request, guards []geom.Rect, clientsPerShard int) (time.Duration, error) {
	workers := len(f.engines) * clientsPerShard
	next := make(chan int, len(reqs))
	for i := range reqs {
		next <- i
	}
	close(next)

	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	start := time.Now()
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if _, err := f.evaluate(context.Background(), reqs[i], guards[i]); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(start), firstErr
}

// ingest routes the update trace by the ownership rule — upserts to
// every overlapping shard, deletes to the stale replicas a move leaves
// behind — and applies each batch's per-shard sub-batches concurrently
// (each shard machine ingests its own share). Returns the elapsed
// wall-clock, or the first update a shard rejected (in shard order), so
// a failed shard write fails the experiment instead of counting as
// ingested.
func (f *shardedFleet) ingest(trace []shardedMove, batchSize int) (time.Duration, error) {
	start := time.Now()
	for off := 0; off < len(trace); off += batchSize {
		batch := trace[off:min(off+batchSize, len(trace))]
		perShard := make([][]core.Update, len(f.engines))
		for _, mv := range batch {
			obj, err := uncertain.NewObject(mv.id, mustUniform(mv.region), uncertain.PaperCatalogProbs())
			if err != nil {
				return 0, err
			}
			reps := f.tiles.ShardsOverlapping(mv.region)
			for _, s := range reps {
				perShard[s] = append(perShard[s], core.Update{Op: core.OpUpsertObject, Object: obj})
			}
			for _, s := range f.replicas[mv.id] {
				if !containsShard(reps, s) {
					perShard[s] = append(perShard[s], core.Update{Op: core.OpDeleteObject, ID: mv.id})
				}
			}
			f.replicas[mv.id] = reps
		}
		var wg sync.WaitGroup
		errs := make([]error, len(perShard))
		for s, ups := range perShard {
			if len(ups) == 0 {
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if rep := f.engines[s].ApplyUpdates(ups); len(rep.Errors) > 0 {
					errs[s] = fmt.Errorf("shard %d: %w", s, rep.Errors[0])
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return 0, err
			}
		}
	}
	return time.Since(start), nil
}

func mustUniform(r geom.Rect) pdf.PDF {
	p, err := pdf.NewUniform(r)
	if err != nil {
		panic(err) // regions are validated by the trace generator
	}
	return p
}

func containsShard(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// Sharded measures horizontal scaling: the same io-bound C-IUQ batch
// and the same update trace driven through tile-partitioned fleets of
// 1, 2, 4 and 8 engines (shardCounts overrides). Every fleet member
// gets the per-shard resources of ThroughputIO's disk regime — a small
// buffer pool over a latency-simulated store — and clientsPerShard
// concurrent clients (0 = 2), so aggregate throughput grows with the
// fleet the way adding machines would grow it: more independent I/O
// paths for reads, more independent writers for ingestion.
//
// The fleet is in-process and the scatter-gather is inlined: the HTTP
// router's bit-exactness and fail-open behavior are covered by
// internal/shard's tests and the examples/cluster harness; this
// experiment isolates what partitioning buys in throughput, without
// the wire stack's fixed costs drowning the signal at bench scale.
func Sharded(cfg Config, shardCounts []int, queries, batches, batchSize, clientsPerShard int) (ShardedReport, error) {
	cfg = cfg.withDefaults()
	if len(shardCounts) == 0 {
		shardCounts = []int{1, 2, 4, 8}
	}
	if queries <= 0 {
		queries = cfg.Queries
	}
	if batches <= 0 {
		batches = 40
	}
	if batchSize <= 0 {
		batchSize = 32
	}
	if clientsPerShard <= 0 {
		clientsPerShard = 2
	}
	const poolPages = 64
	const readLatency = 150 * time.Microsecond

	rcfg := dataset.LongBeachConfig()
	rcfg.N = cfg.Rects
	rcfg.Seed = cfg.Seed + 1
	objs, err := dataset.BuildUncertainObjects(dataset.GenerateRects(rcfg), cfg.Kind, uncertain.PaperCatalogProbs())
	if err != nil {
		return ShardedReport{}, err
	}

	// One workload for every fleet size: the Table 2 C-IUQ batch with
	// its guard regions precomputed, plus a move-heavy update trace
	// over the live object ids.
	env := &Env{cfg: cfg, rng: newRng(cfg.Seed + 2)}
	issuers, err := env.Issuers(queries, DefaultParams().U)
	if err != nil {
		return ShardedReport{}, err
	}
	reqs := make([]core.Request, queries)
	guards := make([]geom.Rect, queries)
	for i, iss := range issuers {
		reqs[i] = core.RequestUncertain(iss, DefaultParams().W, DefaultParams().W, 0.3)
		if guards[i], err = reqs[i].GuardRegion(); err != nil {
			return ShardedReport{}, err
		}
	}
	rng := newRng(cfg.Seed + 3)
	trace := make([]shardedMove, batches*batchSize)
	for i := range trace {
		id := objs[rng.Intn(len(objs))].ID
		c := geom.Pt(rng.Float64()*dataset.Extent, rng.Float64()*dataset.Extent)
		trace[i] = shardedMove{id: id, region: geom.RectCentered(c, 10+rng.Float64()*90, 10+rng.Float64()*90)}
	}

	rep := ShardedReport{
		Name: fmt.Sprintf("io-bound fleet (pool=%d pages/shard, read latency %v, %d clients/shard)",
			poolPages, readLatency, clientsPerShard),
		ClientsPerShard: clientsPerShard,
	}
	for _, n := range shardCounts {
		fleet, err := buildShardedFleet(objs, n, poolPages, readLatency)
		if err != nil {
			return ShardedReport{}, err
		}
		// One unmeasured replay warms the allocator and page caches, as
		// in measureBatch; the measured pass then compares steady-state
		// serving across fleet sizes.
		if _, err := fleet.replay(reqs, guards, clientsPerShard); err != nil {
			return ShardedReport{}, err
		}
		qElapsed, err := fleet.replay(reqs, guards, clientsPerShard)
		if err != nil {
			return ShardedReport{}, err
		}
		uElapsed, err := fleet.ingest(trace, batchSize)
		if err != nil {
			return ShardedReport{}, err
		}
		rep.Points = append(rep.Points, ShardedPoint{
			Shards:        n,
			Queries:       queries,
			QuerySeconds:  qElapsed.Seconds(),
			QPS:           float64(queries) / qElapsed.Seconds(),
			Updates:       len(trace),
			UpdateSeconds: uElapsed.Seconds(),
			UpdatesPerSec: float64(len(trace)) / uElapsed.Seconds(),
		})
	}
	base := rep.Points[0]
	for i := range rep.Points {
		rep.Points[i].QPSSpeedup = rep.Points[i].QPS / base.QPS
		rep.Points[i].UpdatesSpeedup = rep.Points[i].UpdatesPerSec / base.UpdatesPerSec
	}
	return rep, nil
}
