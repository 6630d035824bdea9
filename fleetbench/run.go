package main

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"
)

// runConfig is one benchmark invocation.
type runConfig struct {
	w       *workload
	seed    int64
	seconds float64
	trace   bool
	// scale shrinks the datasets (1 = paper scale); setups is how many
	// times the fleet is built to measure setup_s.
	scale  float64
	setups int
	// dir receives the durable shards' data (removed at the end) and
	// the run record.
	dir string
	log io.Writer
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// rounds is the number of open/closed rounds the timed seconds are
// split into; warmup is the untimed closed-loop phase before them.
const (
	rounds = 6
	warmup = 1500 * time.Millisecond
)

// run executes one workload and returns its result; the run record
// (parameters, sample counts, bases of every ratio) is written under
// cfg.dir.
func run(ctx context.Context, cfg runConfig) (*result, error) {
	w := cfg.w
	logf := func(format string, args ...any) { fmt.Fprintf(cfg.log, "fleetbench: "+format+"\n", args...) }
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.dir)
	in, err := generate(w, cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	conns := runtime.GOMAXPROCS(0)
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}

	var f *fleet
	var setups []float64
	for k := range cfg.setups {
		runtime.GC()
		t0 := time.Now()
		f, err = bootFleet(ctx, w, in, rec, filepath.Join(cfg.dir, fmt.Sprintf("data-%d", k)))
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if k < cfg.setups-1 {
			if err := f.close(); err != nil {
				return nil, fmt.Errorf("teardown: %w", err)
			}
		}
	}
	defer f.close()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	heapMiB := float64(mem.HeapAlloc) / (1 << 20)
	logf("%s: setup %.3fs (of %v), heap %.1f MiB", w.name, median(setups), setups, heapMiB)

	cli := newClient(f.routerURL, conns, rec)
	defer cli.close()
	st, err := newState(w, in, f, cli)
	if err != nil {
		return nil, err
	}

	primary, side := st.query, opFunc(nil)
	if w.updates {
		primary, side = st.update, st.query
	}
	var all []sample
	next := 0 // operation index, so streams walk the query pool
	sideNext := 0
	// phase runs the primary load with the side query stream beside it.
	phase := func(dur time.Duration, load func(first int) []sample) (prim, sideS []sample) {
		var wg sync.WaitGroup
		if side != nil {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sideS = openLoop(ctx, w.sideRate, dur, 1, sideNext, side)
			}()
		}
		prim = load(next)
		wg.Wait()
		next += len(prim)
		sideNext += len(sideS)
		all = append(append(all, prim...), sideS...)
		return prim, sideS
	}
	// The timed seconds are split into rounds of an open-loop then a
	// closed-loop phase, so both phases sample the whole run. Latency
	// comes from all open-loop samples; throughput is the median over
	// rounds, so one disturbed round does not move it.
	total := time.Duration(cfg.seconds * float64(time.Second))
	openDur := time.Duration(w.openShare * float64(total) / rounds)
	closedDur := total/rounds - openDur
	perOp := 1.0
	if w.updates {
		perOp = batchSize
	}
	// closed runs one closed-loop phase and returns its samples and
	// primary operations per second.
	closed := func(d time.Duration) ([]sample, float64) {
		var rate float64
		s, _ := phase(d, func(first int) []sample {
			s, e := closedLoop(ctx, conns, d, first, primary)
			rate = float64(countOK(s)) * perOp / e.Seconds()
			return s
		})
		return s, rate
	}
	closed(min(warmup, total/4))

	// Traced runs interleave an untraced closed-loop phase into every
	// round; counters and tallies cover only the traced phases.
	window, discard := &tally{}, &tally{}
	var d delta
	var openS, openSide, closedS []sample
	var perRound []roundStats
	var untracedRates []float64
	for range rounds {
		if w.checkpoint {
			st.checkpoint(ctx)
		}
		if cfg.trace {
			st.tl.Store(discard)
			_, r := closed(closedDur)
			untracedRates = append(untracedRates, r)
			rec.on.Store(true)
			st.traced.Store(true)
		}
		st.tl.Store(window)
		before, err := readCounters(ctx, f, cli.http)
		if err != nil {
			return nil, err
		}
		o, sd := phase(openDur, func(first int) []sample {
			return openLoop(ctx, w.openRate, openDur, conns, first, primary)
		})
		c, rate := closed(closedDur)
		after, err := readCounters(ctx, f, cli.http)
		if err != nil {
			return nil, err
		}
		if cfg.trace {
			rec.on.Store(false)
			st.traced.Store(false)
		}
		d.add(diff(before, after))
		openS, openSide, closedS = append(openS, o...), append(openSide, sd...), append(closedS, c...)
		perRound = append(perRound, roundStats{summarize(o), rate})
	}
	st.tl.Store(discard)

	verified, mismatches, err := st.verify(ctx)
	if err != nil {
		return nil, fmt.Errorf("verification: %w", err)
	}
	for _, m := range mismatches {
		logf("%s: MISMATCH %v", w.name, m)
	}
	attempted := int64(len(all) + verified)
	failed := int64(len(mismatches))
	var firstErr error
	for _, s := range all {
		if s.err != nil {
			failed++
			firstErr = cmp.Or(firstErr, s.err)
		}
	}
	if st.ckptErr != nil {
		attempted++
		failed++
		firstErr = cmp.Or(firstErr, st.ckptErr)
	}
	if firstErr != nil {
		logf("%s: first failure: %v", w.name, firstErr)
	}

	opStats := summarize(openS)
	var rates []float64
	for _, r := range perRound {
		rates = append(rates, r.perS)
	}
	rec1 := record{
		Workload: w.name, Why: w.why, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Params:        params(w, in, f, conns),
		SetupSeconds:  setups,
		OpenLoop:      opStats.describe(w.openRate, openDur*rounds),
		ClosedLoop:    map[string]any{"clients": conns, "ops": len(closedS), "seconds": float64(closedDur*rounds) / 1e9},
		Rounds:        perRound,
		Verified:      verified,
		Mismatches:    len(mismatches),
		Attempted:     attempted,
		Failed:        failed,
		DrainedDeltas: f.drained.Load(),
	}
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if !cfg.trace {
		res.Metrics = map[string]metric{
			"setup_s":      {median(setups), "s"},
			"heap_mb":      {heapMiB, "MiB"},
			"op_p50_ms":    {opStats.p50, "ms"},
			"op_tail_ms":   {opStats.tail, "ms"},
			"op_max_per_s": {median(rates), "1/s"},
		}
	} else {
		queryStats := opStats
		if w.updates {
			queryStats = summarize(openSide)
		}
		spans := rec.take()
		if err := writeSpans(cfg, spans); err != nil {
			return nil, err
		}
		lr := layerReport(layerInputs{
			w: w, in: in, f: f, st: st, spans: spans, d: d, tl: window,
			ops:          int64(len(openS) + len(closedS)),
			opStats:      opStats,
			queryStats:   queryStats,
			untracedRate: median(untracedRates),
			tracedRate:   median(rates),
			errorFrac:    ratio(float64(failed), float64(attempted)),
		})
		for name, m := range lr.Metrics {
			res.Metrics[name] = metric{m.Value, m.Unit}
		}
		rec1.Layers = lr
		logf("%s: attribution per request (ms): %v", w.name, lr.Attribution)
	}
	rec1.Metrics = res.Metrics
	if err := writeRecord(cfg, rec1); err != nil {
		return nil, err
	}
	return res, nil
}

func countOK(ss []sample) int {
	n := 0
	for _, s := range ss {
		if s.err == nil {
			n++
		}
	}
	return n
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func (ls latencyStats) describe(rate float64, dur time.Duration) map[string]any {
	return map[string]any{
		"rate_per_s": rate, "seconds": dur.Seconds(), "samples": ls.n, "failures": ls.failures,
		"p50_ms": ls.p50, "tail_percentile": ls.tailPct, "tail_ms": ls.tail,
		"samples_beyond_tail": ls.beyond, "late_p99_ms": ls.lateP99,
		"p90_ms": ls.p90, "p99_ms": ls.p99,
	}
}

// roundStats is one round's open-loop latency summary and closed-loop
// primary operations per second.
type roundStats struct {
	open latencyStats
	perS float64
}

func (r roundStats) MarshalJSON() ([]byte, error) {
	return json.Marshal(map[string]any{
		"samples": r.open.n, "p50_ms": r.open.p50, "tail_percentile": r.open.tailPct,
		"tail_ms": r.open.tail, "samples_beyond_tail": r.open.beyond, "closed_per_s": r.perS,
	})
}

// record is the run record written beside the result.
type record struct {
	Workload      string            `json:"workload"`
	Why           string            `json:"why"`
	Seed          int64             `json:"seed"`
	Seconds       float64           `json:"seconds"`
	Trace         bool              `json:"trace"`
	Params        map[string]any    `json:"params"`
	SetupSeconds  []float64         `json:"setup_seconds"`
	OpenLoop      map[string]any    `json:"open_loop"`
	ClosedLoop    map[string]any    `json:"closed_loop"`
	Verified      int               `json:"verified"`
	Mismatches    int               `json:"mismatches"`
	Attempted     int64             `json:"attempted"`
	Failed        int64             `json:"failed"`
	DrainedDeltas int64             `json:"drained_deltas"`
	Metrics       map[string]metric `json:"metrics"`
	Rounds        []roundStats      `json:"rounds"`
	Layers        *layerSummary     `json:"layers,omitempty"`
}

// params describes the workload and the fleet it ran on.
func params(w *workload, in *inputs, f *fleet, conns int) map[string]any {
	p := map[string]any{
		"regime": w.regime.String(), "shards": numShards, "tiles": fmt.Sprintf("%dx%d", tilesX, tilesY),
		"points": len(in.points), "objects": len(in.objects), "query_pool": len(in.queries),
		"open_rate_per_s": w.openRate, "clients": conns, "gomaxprocs": runtime.GOMAXPROCS(0),
		"standing_queries": len(in.standing), "standing_skipped_empty_guard": in.skippedStanding,
		"verify_sample": w.verify,
	}
	if w.updates {
		p["batch_size"] = batchSize
		p["side_query_rate_per_s"] = w.sideRate
		p["checkpoint_per_round"] = w.checkpoint
	}
	if w.regime == pagedRegime {
		var sizes []map[string]int
		for _, node := range f.shards {
			sizes = append(sizes, map[string]int{
				"point_index_pages": node.stores[0].NumPages(), "point_pool_pages": node.pools[0],
				"object_index_pages": node.stores[1].NumPages(), "object_pool_pages": node.pools[1],
			})
		}
		p["per_shard_storage"] = sizes
		p["read_latency_us"] = readLatency.Microseconds()
	}
	return p
}

// writeSpans writes the traced spans, one JSON object a line, beside
// the run record.
func writeSpans(cfg runConfig, spans []*span) error {
	var b []byte
	for _, s := range spans {
		line, err := json.Marshal(map[string]any{
			"trace": s.trace, "id": s.id, "parent": s.parent, "layer": s.layer, "op": s.op,
			"start_ns": s.start.Nanoseconds(), "end_ns": s.end.Nanoseconds(), "bytes": s.bytes,
		})
		if err != nil {
			return err
		}
		b = append(append(b, line...), '\n')
	}
	path := filepath.Join(filepath.Dir(cfg.dir), fmt.Sprintf("%s-seed%d-spans.jsonl", cfg.w.name, cfg.seed))
	return os.WriteFile(path, b, 0o644)
}

func writeRecord(cfg runConfig, r record) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(filepath.Dir(cfg.dir), fmt.Sprintf("%s-seed%d-trace%v.json", r.Workload, r.Seed, r.Trace))
	return os.WriteFile(path, b, 0o644)
}
