package core

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/index/rtree"
	"repro/internal/pdf"
	"repro/internal/storage"
	"repro/internal/uncertain"
)

// concurrencyWorld builds the same dataset as an in-memory engine and a
// paged engine (4 KiB pages behind small buffer pools, optionally with
// simulated read latency), for tests that must agree across storage
// regimes.
func concurrencyWorld(t testing.TB, seed int64, readLatency time.Duration) (mem, paged *Engine) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	points := make([]uncertain.PointObject, 2500)
	for i := range points {
		points[i] = uncertain.PointObject{
			ID:  uncertain.ID(i),
			Loc: geom.Pt(rng.Float64()*2000, rng.Float64()*2000),
		}
	}
	objects := make([]*uncertain.Object, 2000)
	for i := range objects {
		c := geom.Pt(rng.Float64()*2000, rng.Float64()*2000)
		o, err := uncertain.NewObject(uncertain.ID(i),
			pdf.MustUniform(geom.RectCentered(c, 2+rng.Float64()*30, 2+rng.Float64()*30)),
			uncertain.PaperCatalogProbs())
		if err != nil {
			t.Fatal(err)
		}
		objects[i] = o
	}

	mem, err := NewEngine(points, objects, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var pointStore, uncStore storage.Store = storage.NewMemStore(), storage.NewMemStore()
	if readLatency > 0 {
		pointStore = storage.NewLatencyStore(pointStore, readLatency, 0)
		uncStore = storage.NewLatencyStore(uncStore, readLatency, 0)
	}
	paged, err = NewEngine(points, objects, EngineOptions{
		PointNodeStore:     rtree.NewPagedNodeStore(storage.NewBufferPool(pointStore, 24), 0),
		UncertainNodeStore: rtree.NewPagedNodeStore(storage.NewBufferPool(uncStore, 24), 4*len(uncertain.PaperCatalogProbs())),
	})
	if err != nil {
		t.Fatal(err)
	}
	return mem, paged
}

func concurrencyQueries(t testing.TB, n int, seed int64) []Query {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make([]Query, n)
	for i := range out {
		iss := testIssuer(t, geom.Pt(rng.Float64()*2000, rng.Float64()*2000), 60)
		qp := 0.0
		if i%2 == 1 {
			qp = 0.4
		}
		out[i] = Query{Issuer: iss, W: 160, H: 160, Threshold: qp}
	}
	return out
}

// TestConcurrentQueriesMatchSerial runs many simultaneous
// EvaluatePoints / EvaluateUncertain calls over the in-memory and the
// paged engine and asserts that every concurrent result — matches and
// the per-query Cost counters — is identical to the serial baseline
// for the same query. Run under -race this is the core guarantee of
// the concurrent read path: no query perturbs another's answer or
// accounting, even through a shared buffer pool.
func TestConcurrentQueriesMatchSerial(t *testing.T) {
	mem, paged := concurrencyWorld(t, 601, 0)
	queries := concurrencyQueries(t, 24, 602)

	type baseline struct {
		points    Result
		uncertain Result
	}
	for name, e := range map[string]*Engine{"mem": mem, "paged": paged} {
		e := e
		t.Run(name, func(t *testing.T) {
			serial := make([]baseline, len(queries))
			for i, q := range queries {
				rp, err := e.EvaluatePoints(q, EvalOptions{})
				if err != nil {
					t.Fatal(err)
				}
				ru, err := e.EvaluateUncertain(q, EvalOptions{})
				if err != nil {
					t.Fatal(err)
				}
				serial[i] = baseline{points: rp, uncertain: ru}
			}

			const workers = 8
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(wkr int) {
					defer wg.Done()
					for rep := 0; rep < 3; rep++ {
						i := (wkr + rep*workers) % len(queries)
						q := queries[i]
						rp, err := e.EvaluatePoints(q, EvalOptions{})
						if err != nil {
							errs <- err
							return
						}
						ru, err := e.EvaluateUncertain(q, EvalOptions{})
						if err != nil {
							errs <- err
							return
						}
						checkSameResult(t, "points", serial[i].points, rp)
						checkSameResult(t, "uncertain", serial[i].uncertain, ru)
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}

// checkSameResult asserts result equality including the per-query cost
// counters (Duration excepted, which is wall-clock). It only uses
// Errorf, so it is safe to call from worker goroutines.
func checkSameResult(t *testing.T, label string, want, got Result) {
	t.Helper()
	if len(want.Matches) != len(got.Matches) {
		t.Errorf("%s: %d vs %d matches", label, len(got.Matches), len(want.Matches))
		return
	}
	for i := range want.Matches {
		if want.Matches[i] != got.Matches[i] {
			t.Errorf("%s: match %d: %+v vs %+v", label, i, got.Matches[i], want.Matches[i])
			return
		}
	}
	w, g := want.Cost, got.Cost
	w.Duration, g.Duration = 0, 0
	if w != g {
		t.Errorf("%s: concurrent cost %+v differs from serial %+v", label, g, w)
	}
}

// TestEvaluateBatchDeterministic asserts that EvaluateBatch returns
// bit-identical results regardless of the worker count — each query
// draws from a source derived from its index, not from its worker —
// over both storage regimes, with mixed point/uncertain targets.
func TestEvaluateBatchDeterministic(t *testing.T) {
	mem, paged := concurrencyWorld(t, 603, 0)
	queries := concurrencyQueries(t, 20, 604)
	batch := make([]BatchQuery, len(queries))
	for i, q := range queries {
		target := TargetUncertain
		if i%3 == 0 {
			target = TargetPoints
		}
		batch[i] = BatchQuery{Query: q, Target: target}
	}

	for name, e := range map[string]*Engine{"mem": mem, "paged": paged} {
		e := e
		t.Run(name, func(t *testing.T) {
			serial := e.EvaluateBatch(batch, EvalOptions{}, 1)
			for workers := 2; workers <= 4; workers++ {
				par := e.EvaluateBatch(batch, EvalOptions{}, workers)
				if len(par) != len(serial) {
					t.Fatalf("workers=%d: %d results, want %d", workers, len(par), len(serial))
				}
				for i := range par {
					if par[i].Err != nil || serial[i].Err != nil {
						t.Fatalf("workers=%d query %d: err %v / %v", workers, i, par[i].Err, serial[i].Err)
					}
					checkSameResult(t, batch[i].Target.String(), serial[i].Result, par[i].Result)
				}
			}
		})
	}
}

// TestConcurrentMixedWorkload drives EvaluateBatch, single-query
// evaluations, and parallel refinement simultaneously against one paged
// engine — the serving shape the engine documents as safe. It is
// primarily a -race workout; results are sanity-checked against a
// serial baseline.
func TestConcurrentMixedWorkload(t *testing.T) {
	_, paged := concurrencyWorld(t, 605, 0)
	queries := concurrencyQueries(t, 12, 606)
	batch := make([]BatchQuery, len(queries))
	for i, q := range queries {
		batch[i] = BatchQuery{Query: q}
	}
	serial := paged.EvaluateBatch(batch, EvalOptions{}, 1)

	var wg sync.WaitGroup
	errs := make(chan error, 3)
	wg.Add(3)
	go func() {
		defer wg.Done()
		out := paged.EvaluateBatch(batch, EvalOptions{}, 4)
		for i, r := range out {
			if r.Err != nil {
				errs <- r.Err
				return
			}
			checkSameResult(t, "batch", serial[i].Result, r.Result)
		}
	}()
	go func() {
		defer wg.Done()
		for i, q := range queries {
			r, err := paged.EvaluateUncertain(q, EvalOptions{})
			if err != nil {
				errs <- err
				return
			}
			checkSameResult(t, "single", serial[i].Result, r)
		}
	}()
	go func() {
		defer wg.Done()
		r, err := paged.EvaluateUncertainParallel(queries[0], EvalOptions{}, 4)
		if err != nil {
			errs <- err
			return
		}
		checkSameResult(t, "parallel", serial[0].Result, r)
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestLatencyStoreOverlap asserts that with simulated read latency,
// batch evaluation with several workers overlaps physical reads and
// finishes faster than the serial run — the I/O-bound scaling the
// thread-safe buffer pool buys even on one CPU.
func TestLatencyStoreOverlap(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	_, paged := concurrencyWorld(t, 607, 200*time.Microsecond)
	queries := concurrencyQueries(t, 16, 608)
	batch := make([]BatchQuery, len(queries))
	for i, q := range queries {
		batch[i] = BatchQuery{Query: q}
	}
	// Warm nothing: both runs start from the same (cold-ish) pool, and
	// the serial run goes first, so any caching bias favours the run
	// that must lose.
	start := time.Now()
	for _, r := range paged.EvaluateBatch(batch, EvalOptions{}, 1) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	serialDur := time.Since(start)

	start = time.Now()
	for _, r := range paged.EvaluateBatch(batch, EvalOptions{}, 4) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	parDur := time.Since(start)
	if parDur >= serialDur {
		t.Logf("note: 4-worker batch (%v) not faster than serial (%v); pool may have been warm", parDur, serialDur)
	}
}

// TestDeriveSeedNoCollisions checks the splitmix-style worker seed
// derivation: for one parent, every child index must get a distinct
// seed (the additive scheme it replaced collided whenever two parent
// draws differed by less than the worker count).
func TestDeriveSeedNoCollisions(t *testing.T) {
	parents := []int64{0, 1, -1, 42, 1 << 40}
	seen := make(map[int64][2]int, 4096)
	for pi, p := range parents {
		for c := 0; c < 512; c++ {
			s := deriveSeed(p, c)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: parent[%d] child %d vs parent[%d] child %d",
					pi, c, prev[0], prev[1])
			}
			seen[s] = [2]int{pi, c}
		}
	}
	// Adjacent parents must not produce overlapping child streams the
	// way parent+child addition does.
	if deriveSeed(10, 1) == deriveSeed(11, 0) {
		t.Fatal("adjacent parents alias child seeds")
	}
}
