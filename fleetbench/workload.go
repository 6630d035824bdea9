package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/serve"
	"repro/internal/shard"
)

// regime is the storage and durability setting of every shard.
type regime int

const (
	memRegime     regime = iota // in-memory indexes, ephemeral engines
	durableRegime               // in-memory indexes, WAL with fsync "interval"
	pagedRegime                 // paged indexes over a small buffer pool and a slow store
)

func (r regime) String() string {
	return [...]string{"memory", "durable", "paged"}[r]
}

// workload is one traffic mix. The primary operation is a one-shot
// router /v1/evaluate request, or, when updates is set, a router
// /v1/updates batch of batchSize updates.
type workload struct {
	name   string
	why    string
	regime regime
	// nn selects probabilistic NN requests for the query pool (range
	// C-IUQ/C-IPQ requests otherwise).
	nn bool
	// updates makes the update batch the primary operation; the
	// query pool then feeds a side stream at sideRate requests/s.
	updates  bool
	sideRate float64
	// openRate is the primary operations/s of the open-loop phase:
	// about an eighth of the closed-loop capacity on a 2-vCPU host
	// (a quarter on paged-range), where latency follows the fleet's
	// service time; at half capacity queueing amplified the host's
	// speed changes into 20-50% latency swings between identical runs.
	// openShare is the open-loop part of each round; at 24 seconds it
	// puts the tail percentile (see tailPercentile) at p90 with 36-96
	// samples beyond it. A p99 with 12-21 samples beyond moved by a
	// third between identical runs.
	openRate  float64
	openShare float64
	// standing C-IUQs registered through the router at setup.
	standing int
	// checkpoint runs Engine.Checkpoint on every shard before each
	// round, outside the timed phases: inside them the stall landed on
	// a varying share of a round's operations, and the ingest metrics
	// moved by 25-50% between identical runs.
	checkpoint bool
	// verify is how many pool requests are replayed against the
	// reference engine after the timed phases.
	verify int
}

const (
	numShards = 2
	tilesX    = 8
	tilesY    = 8
	batchSize = 32
	// poolSize is the number of distinct pre-encoded query requests;
	// the streams cycle through them, several times per run, so the
	// latency distribution is that of one fixed request set.
	poolSize = 512
	// readLatency is the simulated service time of one physical page
	// read on paged-range.
	readLatency = 150 * time.Microsecond
	// Buffer-pool capacity per shard on paged-range, in pages per
	// indexed item: about a quarter of each index.
	pointsPerPoolPage  = 400
	objectsPerPoolPage = 40
)

var workloads = []*workload{
	{
		name:      "range-mix",
		why:       "in-memory one-shot C-IUQ/C-IPQ: refinement is closed-form, so router and shard JSON/HTTP/merge work dominates",
		regime:    memRegime,
		openRate:  300,
		openShare: 0.13,
		verify:    200,
	},
	{
		name:      "nn-mix",
		why:       "in-memory probabilistic k-NN: every shard is probed, candidates cross the wire and the router refines them",
		regime:    memRegime,
		nn:        true,
		openRate:  100,
		openShare: 0.4,
		verify:    60,
	},
	{
		name:       "ingest-standing",
		why:        "durable shards with 64 standing C-IUQs take 32-update batches beside a light query stream, with periodic checkpoints",
		regime:     durableRegime,
		updates:    true,
		sideRate:   20,
		openRate:   25,
		openShare:  0.6,
		standing:   64,
		checkpoint: true,
		verify:     100,
	},
	{
		name:      "paged-range",
		why:       "range-mix queries over paged indexes with a buffer pool a quarter of the index over a 150us-per-read store",
		regime:    pagedRegime,
		openRate:  40,
		openShare: 0.5,
		verify:    100,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// splitmix64 derives independent generator streams from one seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func newRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(splitmix64(uint64(seed)), splitmix64(stream)))
}

// inputs is everything the seeded generator produces for one run: the
// initial data as wire updates, the query pool, the standing queries
// and the update stream. The program only ever sees these wire forms.
type inputs struct {
	points  []serve.UpdateJSON // upsert_point, ids 0..n-1
	objects []serve.UpdateJSON // upsert_object, ids 0..n-1
	queries []serve.RequestJSON
	bodies  [][]byte // queries, pre-encoded
	// offset is the pool index the query streams start at.
	offset int
	// standing are the C-IUQs registered at setup; skippedStanding
	// counts draws left out because their guard region is empty.
	standing        []serve.RequestJSON
	skippedStanding int
	// walk produces the update stream.
	walk *walker
}

// generate builds a run's inputs. The datasets, the request pool and
// the standing queries are fixed (scale shrinks the paper-scale
// datasets: 1 = 62K points and 53K objects); the seed sets where the
// streams enter the pool and drives the update stream. Drawn per seed,
// the pool's few heaviest requests and the standing queries' mix of
// sizes moved the tail latency and the ingest throughput by a third to
// a half between seeds.
func generate(w *workload, seed int64, scale float64) (*inputs, error) {
	pcfg := dataset.CaliforniaConfig()
	pcfg.N = max(1, int(float64(pcfg.N)*scale))
	rcfg := dataset.LongBeachConfig()
	rcfg.N = max(1, int(float64(rcfg.N)*scale))

	in := &inputs{offset: int(splitmix64(uint64(seed)) % poolSize)}
	for i, p := range dataset.GeneratePoints(pcfg) {
		in.points = append(in.points, serve.UpdateJSON{Op: "upsert_point", ID: int64(i), X: p.X, Y: p.Y})
	}
	for i, r := range dataset.GenerateRects(rcfg) {
		in.objects = append(in.objects, serve.UpdateJSON{Op: "upsert_object", ID: int64(i),
			Region: []float64{r.Lo.X, r.Lo.Y, r.Hi.X, r.Hi.Y}})
	}

	rng := newRand(0, 3)
	for i := range poolSize {
		var q serve.RequestJSON
		if w.nn {
			q = in.nnRequest(rng)
		} else {
			q = in.rangeRequest(rng, i%2 == 0)
		}
		body, err := json.Marshal(q)
		if err != nil {
			return nil, err
		}
		in.queries = append(in.queries, q)
		in.bodies = append(in.bodies, body)
	}
	for len(in.standing) < w.standing {
		q := in.rangeRequest(rng, true)
		// shard.Router.Register refuses a standing range query whose
		// guard region is empty (a threshold no object can reach for
		// that range): it reports "no shard accepted" where a single
		// server registers the query. Such draws are skipped here and
		// counted in the run record; the one-shot streams still send
		// them.
		if empty, err := emptyGuard(q); err != nil {
			return nil, err
		} else if empty {
			in.skippedStanding++
			continue
		}
		in.standing = append(in.standing, q)
	}
	if w.updates {
		in.walk = newWalker(in, newRand(seed, 4))
	}
	return in, nil
}

// issuer draws a uniform-pdf issuer region with 50-300 unit sides
// centred near a random data item, so queries land where data is.
func (in *inputs) issuer(rng *rand.Rand) serve.IssuerJSON {
	var cx, cy float64
	if rng.IntN(2) == 0 {
		p := in.points[rng.IntN(len(in.points))]
		cx, cy = p.X, p.Y
	} else {
		r := in.objects[rng.IntN(len(in.objects))].Region
		cx, cy = (r[0]+r[2])/2, (r[1]+r[3])/2
	}
	cx += rng.Float64()*200 - 100
	cy += rng.Float64()*200 - 100
	hw := (50 + rng.Float64()*250) / 2
	hh := (50 + rng.Float64()*250) / 2
	cx = clamp(cx, hw, dataset.Extent-hw)
	cy = clamp(cy, hh, dataset.Extent-hh)
	return serve.IssuerJSON{Region: []float64{cx - hw, cy - hh, cx + hw, cy + hh}}
}

// emptyGuard reports whether a range request's guard region is empty.
func emptyGuard(q serve.RequestJSON) (bool, error) {
	req, err := q.ToRequest()
	if err != nil {
		return false, err
	}
	g, err := req.GuardRegion()
	return g.Lo.X > g.Hi.X || g.Lo.Y > g.Hi.Y, err
}

func clamp(v, lo, hi float64) float64 { return math.Max(lo, math.Min(hi, v)) }

var rangeThresholds = []float64{0.1, 0.5, 0.9}

// rangeRequest is a C-IUQ (uncertain) or C-IPQ (points) request with a
// 50-300 unit range and a threshold from {0.1, 0.5, 0.9}.
func (in *inputs) rangeRequest(rng *rand.Rand, uncertainKind bool) serve.RequestJSON {
	kind := "points"
	if uncertainKind {
		kind = "uncertain"
	}
	return serve.RequestJSON{
		Kind:      kind,
		Issuer:    in.issuer(rng),
		W:         50 + rng.Float64()*250,
		H:         50 + rng.Float64()*250,
		Threshold: rangeThresholds[rng.IntN(len(rangeThresholds))],
		Seed:      rng.Int64N(math.MaxInt64-1) + 1,
	}
}

var nnThresholds = []float64{0, 0.1}

// nnRequest is a probabilistic k-NN request, k in 1..3, threshold in
// {0, 0.1}, with the server's default nn_samples.
func (in *inputs) nnRequest(rng *rand.Rand) serve.RequestJSON {
	return serve.RequestJSON{
		Kind:      "nn",
		Issuer:    in.issuer(rng),
		K:         1 + rng.IntN(3),
		Threshold: nnThresholds[rng.IntN(len(nnThresholds))],
		Seed:      rng.Int64N(math.MaxInt64-1) + 1,
	}
}

// walker generates random-walk re-reports: each update moves one
// point, or shifts one uncertain object's region, by up to 25 units
// per axis. Batches are generated in claim order under a lock.
type walker struct {
	mu      sync.Mutex
	rng     *rand.Rand
	points  [][2]float64
	objects [][4]float64
	batches int
	// objectUpserts and straddling count generated object moves and
	// those whose region overlaps more than one shard.
	objectUpserts, straddling int
	tiles                     *shard.TileMap
}

func newWalker(in *inputs, rng *rand.Rand) *walker {
	wk := &walker{rng: rng}
	for _, p := range in.points {
		wk.points = append(wk.points, [2]float64{p.X, p.Y})
	}
	for _, o := range in.objects {
		wk.objects = append(wk.objects, [4]float64(o.Region))
	}
	wk.tiles = mustTiles()
	return wk
}

// next returns the next batch of the update stream, encoded.
func (wk *walker) next() (serve.UpdatesRequest, []byte, error) {
	wk.mu.Lock()
	defer wk.mu.Unlock()
	ups := make([]serve.UpdateJSON, batchSize)
	step := func() float64 { return wk.rng.Float64()*50 - 25 }
	for i := range ups {
		if wk.rng.IntN(2) == 0 {
			id := wk.rng.IntN(len(wk.points))
			p := &wk.points[id]
			p[0] = clamp(p[0]+step(), 0, dataset.Extent)
			p[1] = clamp(p[1]+step(), 0, dataset.Extent)
			ups[i] = serve.UpdateJSON{Op: "upsert_point", ID: int64(id), X: p[0], Y: p[1]}
			continue
		}
		id := wk.rng.IntN(len(wk.objects))
		r := &wk.objects[id]
		dx := clamp(step(), -r[0], dataset.Extent-r[2])
		dy := clamp(step(), -r[1], dataset.Extent-r[3])
		r[0], r[2] = r[0]+dx, r[2]+dx
		r[1], r[3] = r[1]+dy, r[3]+dy
		ups[i] = serve.UpdateJSON{Op: "upsert_object", ID: int64(id), Region: []float64{r[0], r[1], r[2], r[3]}}
		wk.objectUpserts++
		if len(wk.tiles.ShardsOverlapping(rectOf(ups[i].Region))) > 1 {
			wk.straddling++
		}
	}
	wk.batches++
	req := serve.UpdatesRequest{Updates: ups}
	body, err := json.Marshal(req)
	return req, body, err
}

// straddleCounts returns the generated object moves and how many of
// them straddle a shard boundary.
func (wk *walker) straddleCounts() (moves, straddling int) {
	wk.mu.Lock()
	defer wk.mu.Unlock()
	return wk.objectUpserts, wk.straddling
}
