package nn

import (
	"errors"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/geom"
	"repro/internal/pdf"
	"repro/internal/uncertain"
)

func TestEvaluateEmpty(t *testing.T) {
	issuer := pdf.MustUniform(geom.RectCentered(geom.Pt(0, 0), 1, 1))
	if _, err := Evaluate(nil, issuer, 100, 0); err != ErrNoObjects {
		t.Fatalf("expected ErrNoObjects, got %v", err)
	}
}

func TestSingleObjectAlwaysWins(t *testing.T) {
	issuer := pdf.MustUniform(geom.RectCentered(geom.Pt(50, 50), 10, 10))
	pts := []uncertain.PointObject{{ID: 7, Loc: geom.Pt(80, 80)}}
	res, err := Evaluate(pts, issuer, 500, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 1 || res.Matches[0].ID != 7 || res.Matches[0].P != 1 {
		t.Fatalf("single object result = %+v", res.Matches)
	}
}

func TestDominatedObjectPruned(t *testing.T) {
	// Object B is so far away it can never be nearest: pruned in
	// stage 1 and absent from results.
	issuer := pdf.MustUniform(geom.RectCentered(geom.Pt(0, 0), 5, 5))
	pts := []uncertain.PointObject{
		{ID: 1, Loc: geom.Pt(1, 1)},
		{ID: 2, Loc: geom.Pt(1000, 1000)},
	}
	res, err := Evaluate(pts, issuer, 800, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Candidates != 1 {
		t.Fatalf("candidates = %d, want 1 (far object pruned)", res.Candidates)
	}
	if len(res.Matches) != 1 || res.Matches[0].ID != 1 {
		t.Fatalf("matches = %+v", res.Matches)
	}
}

func TestSymmetricPairSplits(t *testing.T) {
	// Two objects mirror-symmetric about the issuer center: each wins
	// about half the time.
	issuer := pdf.MustUniform(geom.RectCentered(geom.Pt(0, 0), 20, 20))
	pts := []uncertain.PointObject{
		{ID: 1, Loc: geom.Pt(-30, 0)},
		{ID: 2, Loc: geom.Pt(30, 0)},
	}
	res, err := Evaluate(pts, issuer, 40000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 2 {
		t.Fatalf("matches = %+v", res.Matches)
	}
	for _, m := range res.Matches {
		if math.Abs(m.P-0.5) > 0.02 {
			t.Fatalf("object %d probability %g, want ~0.5", m.ID, m.P)
		}
	}
}

func TestAgainstExact1D(t *testing.T) {
	// Issuer on a thin horizontal strip; objects on the same line. The
	// Monte-Carlo result must match the interval closed form.
	xs := []float64{10, 22, 40, 41, 90}
	a, b := 0.0, 100.0
	issuer := pdf.MustUniform(geom.Rect{Lo: geom.Pt(a, 50), Hi: geom.Pt(b, 50.001)})
	var pts []uncertain.PointObject
	for i, x := range xs {
		pts = append(pts, uncertain.PointObject{ID: uncertain.ID(i), Loc: geom.Pt(x, 50)})
	}
	res, err := Evaluate(pts, issuer, 60000, 6)
	if err != nil {
		t.Fatal(err)
	}
	want := Exact1D(xs, a, b)
	got := make(map[uncertain.ID]float64)
	for _, m := range res.Matches {
		got[m.ID] = m.P
	}
	for i, w := range want {
		if math.Abs(got[uncertain.ID(i)]-w) > 0.015 {
			t.Fatalf("object %d: MC %g vs exact %g", i, got[uncertain.ID(i)], w)
		}
	}
}

func TestExact1DEdgeCases(t *testing.T) {
	if out := Exact1D(nil, 0, 10); len(out) != 0 {
		t.Fatal("empty input should give empty output")
	}
	out := Exact1D([]float64{5}, 0, 10)
	if out[0] != 1 {
		t.Fatalf("lone object share = %g", out[0])
	}
	// Degenerate segment.
	out = Exact1D([]float64{1, 2}, 5, 5)
	if out[0] != 0 || out[1] != 0 {
		t.Fatalf("degenerate segment shares = %v", out)
	}
	// Shares always sum to 1 on a proper segment.
	out = Exact1D([]float64{1, 2, 3, 50, 99}, 0, 100)
	var sum float64
	for _, v := range out {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("shares sum to %g", sum)
	}
}

func TestEvaluateThreshold(t *testing.T) {
	issuer := pdf.MustUniform(geom.RectCentered(geom.Pt(0, 0), 10, 10))
	pts := []uncertain.PointObject{
		{ID: 1, Loc: geom.Pt(-5, 0)},
		{ID: 2, Loc: geom.Pt(5, 0)},
		{ID: 3, Loc: geom.Pt(0, 14)}, // occasionally nearest
	}
	res, err := EvaluateThreshold(pts, issuer, 0.25, 20000, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.Matches {
		if m.P < 0.25 {
			t.Fatalf("threshold violated: %+v", m)
		}
	}
	if len(res.Matches) == 0 {
		t.Fatal("no matches above threshold")
	}
}

func TestGaussianIssuerConcentrates(t *testing.T) {
	// With a Gaussian issuer, the object near the mean should win far
	// more often than under a uniform issuer.
	region := geom.RectCentered(geom.Pt(0, 0), 30, 30)
	gauss, err := pdf.NewTruncGaussian(region, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	uni := pdf.MustUniform(region)
	pts := []uncertain.PointObject{
		{ID: 1, Loc: geom.Pt(0, 0)},    // at the mean
		{ID: 2, Loc: geom.Pt(25, 25)},  // corner
		{ID: 3, Loc: geom.Pt(-25, 25)}, // corner
	}
	resG, err := Evaluate(pts, gauss, 20000, 8)
	if err != nil {
		t.Fatal(err)
	}
	resU, err := Evaluate(pts, uni, 20000, 8)
	if err != nil {
		t.Fatal(err)
	}
	pG := map[uncertain.ID]float64{}
	for _, m := range resG.Matches {
		pG[m.ID] = m.P
	}
	pU := map[uncertain.ID]float64{}
	for _, m := range resU.Matches {
		pU[m.ID] = m.P
	}
	if pG[1] <= pU[1] {
		t.Fatalf("Gaussian center win rate %g not above uniform %g", pG[1], pU[1])
	}
}

func TestProbabilitiesSumToExactlyOne(t *testing.T) {
	// The shared stream resolves every sample to exactly one winner, so
	// exhaustive estimates sum to 1 exactly — only float addition of
	// the final divisions separates the sum from 1.
	rng := rand.New(rand.NewSource(9))
	issuer := pdf.MustUniform(geom.RectCentered(geom.Pt(500, 500), 100, 100))
	var pts []uncertain.PointObject
	for i := 0; i < 60; i++ {
		pts = append(pts, uncertain.PointObject{
			ID:  uncertain.ID(i),
			Loc: geom.Pt(rng.Float64()*1000, rng.Float64()*1000),
		})
	}
	res, err := Evaluate(pts, issuer, 30000, 9)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, m := range res.Matches {
		sum += m.P
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("probabilities sum to %.17g, want exactly 1", sum)
	}
	if res.Candidates > len(pts) {
		t.Fatalf("candidates %d exceed objects %d", res.Candidates, len(pts))
	}
}

// refineFixture builds a spread of candidates around a wide issuer so
// that threshold sweeps see clear winners, clear losers, and a few
// contested candidates.
func refineFixture(n int, seed int64) ([]uncertain.PointObject, pdf.PDF) {
	rng := rand.New(rand.NewSource(seed))
	issuer := pdf.MustUniform(geom.RectCentered(geom.Pt(0, 0), 50, 50))
	var cands []uncertain.PointObject
	for i := 0; i < n; i++ {
		cands = append(cands, uncertain.PointObject{
			ID:  uncertain.ID(100 + i),
			Loc: geom.Pt(rng.Float64()*200-100, rng.Float64()*200-100),
		})
	}
	return cands, issuer
}

func TestRefineWorkerInvariance(t *testing.T) {
	// The determinism contract: block-keyed streams plus integer tally
	// merges make the probabilities bit-identical at every worker
	// count, serial included — in exhaustive mode and under adaptive
	// retirement (decisions happen at fixed round boundaries, never at
	// worker-dependent points).
	cands, issuer := refineFixture(17, 11)
	const parent = 42
	for _, cfg := range []RefineConfig{
		{Samples: 5000},
		{Samples: 9000, Threshold: 0.3, Adaptive: true},
	} {
		serial := cfg
		serial.Workers = 1
		base, baseStats, err := Refine(cands, issuer, parent, serial)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			c := cfg
			c.Workers = workers
			got, stats, err := Refine(cands, issuer, parent, c)
			if err != nil {
				t.Fatal(err)
			}
			for i := range base {
				if got[i] != base[i] {
					t.Fatalf("adaptive=%v workers=%d: candidate %d probability %v != serial %v",
						cfg.Adaptive, workers, cands[i].ID, got[i], base[i])
				}
			}
			if stats.Samples != baseStats.Samples || stats.EarlyStopped != baseStats.EarlyStopped {
				t.Fatalf("adaptive=%v workers=%d: stats %+v != serial %+v",
					cfg.Adaptive, workers, stats, baseStats)
			}
		}
	}
}

func TestRefineMatchesExact1D(t *testing.T) {
	// The shared-stream kernel against the interval closed form,
	// exercised directly (not through Evaluate).
	xs := []float64{5, 18, 44, 71, 93}
	a, b := 0.0, 100.0
	issuer := pdf.MustUniform(geom.Rect{Lo: geom.Pt(a, 10), Hi: geom.Pt(b, 10.001)})
	var cands []uncertain.PointObject
	for i, x := range xs {
		cands = append(cands, uncertain.PointObject{ID: uncertain.ID(i), Loc: geom.Pt(x, 10)})
	}
	probs, stats, err := Refine(cands, issuer, 77, RefineConfig{Samples: 60000, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Samples != 60000 || stats.EarlyStopped != 0 || stats.Converged {
		t.Fatalf("exhaustive stats = %+v", stats)
	}
	want := Exact1D(xs, a, b)
	for i := range want {
		if math.Abs(probs[i]-want[i]) > 0.015 {
			t.Fatalf("candidate %d: MC %g vs exact %g", i, probs[i], want[i])
		}
	}
}

func TestRefineAdaptiveMatchesExhaustiveQualifyingSet(t *testing.T) {
	// Adaptive retirement must not change which candidates clear the
	// threshold, at any threshold — and candidates that were NOT
	// retired must carry tallies bit-identical to the exhaustive run
	// (retirees stay in the scan as blockers, so survivors see the
	// full candidate set).
	cands, issuer := refineFixture(24, 13)
	const parent = 314
	const samples = 40000
	exh, _, err := Refine(cands, issuer, parent, RefineConfig{Samples: samples})
	if err != nil {
		t.Fatal(err)
	}
	for _, qp := range []float64{0.1, 0.5, 0.9} {
		adapt, stats, err := Refine(cands, issuer, parent, RefineConfig{
			Samples: samples, Threshold: qp, Adaptive: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if stats.EarlyStopped == 0 {
			t.Fatalf("qp=%.1f: nothing early-stopped in %d samples", qp, samples)
		}
		for i := range cands {
			if (adapt[i] >= qp) != (exh[i] >= qp) {
				t.Fatalf("qp=%.1f candidate %d: adaptive %v vs exhaustive %v straddle the threshold",
					qp, cands[i].ID, adapt[i], exh[i])
			}
			if !stats.Decided[i] && adapt[i] != exh[i] {
				t.Fatalf("qp=%.1f candidate %d survived but %v != exhaustive %v",
					qp, cands[i].ID, adapt[i], exh[i])
			}
		}
	}
}

func TestRefineAdaptiveConverges(t *testing.T) {
	// One dominant candidate and one hopeless one: both should be
	// decided long before the budget, stopping the stream entirely.
	issuer := pdf.MustUniform(geom.RectCentered(geom.Pt(0, 0), 4, 4))
	cands := []uncertain.PointObject{
		{ID: 1, Loc: geom.Pt(0, 0)},
		{ID: 2, Loc: geom.Pt(90, 0)},
	}
	probs, stats, err := Refine(cands, issuer, 5, RefineConfig{
		Samples: 1 << 20, Threshold: 0.5, Adaptive: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Converged || stats.EarlyStopped != 2 {
		t.Fatalf("stats = %+v, want full convergence", stats)
	}
	if stats.Samples >= 1<<20 {
		t.Fatalf("drew the whole budget (%d samples) despite convergence", stats.Samples)
	}
	if probs[0] < 0.5 || probs[1] >= 0.5 {
		t.Fatalf("probs = %v", probs)
	}
}

func TestRefineErrorPropagation(t *testing.T) {
	// A refinement error must surface from every path — the serial
	// loop and the block workers (the old per-candidate pool dropped
	// worker errors, leaving silent zero probabilities).
	cands, issuer := refineFixture(9, 17)
	wantErr := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var calls atomic.Int64
		_, _, err := Refine(cands, issuer, 1, RefineConfig{
			Samples: 100000,
			Workers: workers,
			Cancel: func() error {
				if calls.Add(1) > 3 {
					return wantErr
				}
				return nil
			},
		})
		if !errors.Is(err, wantErr) {
			t.Fatalf("workers=%d: error = %v, want %v", workers, err, wantErr)
		}
	}
}

func TestRefinePartialFinalBlock(t *testing.T) {
	// A budget that is not a multiple of the block size must draw
	// exactly the budget, and the tallies must still sum to it.
	cands, issuer := refineFixture(5, 19)
	samples := 2*DefaultBlock + 37
	probs, stats, err := Refine(cands, issuer, 3, RefineConfig{Samples: samples})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Samples != int64(samples) {
		t.Fatalf("drew %d samples, want %d", stats.Samples, samples)
	}
	var sum float64
	for _, p := range probs {
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("probabilities sum to %.17g", sum)
	}
}

func TestRefineNoCandidates(t *testing.T) {
	issuer := pdf.MustUniform(geom.RectCentered(geom.Pt(0, 0), 1, 1))
	probs, stats, err := Refine(nil, issuer, 1, RefineConfig{})
	if err != nil || len(probs) != 0 || stats.Samples != 0 {
		t.Fatalf("empty refine = %v %+v %v", probs, stats, err)
	}
}

// Race-detector coverage of a parallel adaptive refinement (run under
// `go test -race ./internal/...`): a multi-round run with retirements
// between rounds, checked against the serial result.
func TestRefineParallelAdaptiveRace(t *testing.T) {
	cands, issuer := refineFixture(30, 23)
	cfg := RefineConfig{Samples: 20000, Threshold: 0.4, Adaptive: true}
	serial, _, err := Refine(cands, issuer, 99, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	par, _, err := Refine(cands, issuer, 99, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i] != par[i] {
			t.Fatalf("candidate %d: parallel %v != serial %v", i, par[i], serial[i])
		}
	}
}
