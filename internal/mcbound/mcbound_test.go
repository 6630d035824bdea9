package mcbound

import (
	"math"
	"math/rand"
	"testing"
)

// Certainty bound: once the undrawn mass cannot move the full-budget
// mean across qp, the decision is fixed regardless of delta.
func TestDecidedCertainty(t *testing.T) {
	// 60 of 100 samples already sum to 55: full-budget mean >= 0.55
	// even if every remaining draw is 0 — decided above qp=0.5.
	p, done := Decided(55, 55, 60, 100, 0.5, 1e-300)
	if !done {
		t.Fatalf("certainty-above not decided")
	}
	if p < 0.5 {
		t.Fatalf("decided-above returned mean %v < qp", p)
	}
	// 60 samples sum to 5: even 40 more ones give mean 0.45 < 0.5.
	p, done = Decided(5, 5, 60, 100, 0.5, 1e-300)
	if !done {
		t.Fatalf("certainty-below not decided")
	}
	if p >= 0.5 {
		t.Fatalf("decided-below returned mean %v >= qp", p)
	}
}

// Borderline running means with a huge remaining budget must not be
// decided: both confidence radii exceed the gap to qp.
func TestDecidedBorderlineUndecided(t *testing.T) {
	// mean 0.5, qp 0.5+1e-9, sample variance maximal (indicators).
	if _, done := Decided(50, 50, 100, 1_000_000, 0.5+1e-9, 1e-6); done {
		t.Fatalf("borderline candidate decided early")
	}
}

// Zero-variance streams fall back to the Bernstein bias term, which
// shrinks as 1/(n-1) and decides far earlier than Hoeffding's 1/sqrt(n).
func TestDecidedZeroVariance(t *testing.T) {
	qp := 0.5
	n := 64
	// All samples exactly 0.9: variance 0, mean 0.9.
	sum := 0.9 * float64(n)
	sumSq := 0.81 * float64(n)
	p, done := Decided(sum, sumSq, n, 1_000_000, qp, 1e-6)
	if !done {
		t.Fatalf("zero-variance stream not decided at n=%d", n)
	}
	if math.Abs(p-0.9) > 1e-12 {
		t.Fatalf("decided mean = %v, want 0.9", p)
	}
}

// The decision must agree with the true side of qp with overwhelming
// probability: stream indicator samples with known bias and check that
// every early decision lands on the correct side.
func TestDecidedAgreesWithTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		truth := rng.Float64()
		qp := rng.Float64()
		total := 4096
		var sum float64
		for n := 1; n <= total; n++ {
			v := 0.0
			if rng.Float64() < truth {
				v = 1.0
			}
			sum += v
			if n < 2 || n == total {
				continue
			}
			if p, done := Decided(sum, sum, n, total, qp, 1e-6); done {
				if math.Abs(truth-qp) < 0.05 {
					break // too close to call; either side is within the bound's risk
				}
				if (p >= qp) != (truth >= qp) {
					t.Fatalf("trial %d: decided %v at n=%d but truth %v vs qp %v",
						trial, p, n, truth, qp)
				}
				break
			}
		}
	}
}

// A stream is a pure function of (seed, key): equal keys replay the
// same draws, and a different seed or key gives a different stream.
func TestStreamKeyed(t *testing.T) {
	draws := func(seed int64, key uint64) [4]float64 {
		r := Stream(seed, key)
		return [4]float64{r.Float64(), r.Float64(), r.NormFloat64(), float64(r.Intn(1000))}
	}
	if draws(9, 3) != draws(9, 3) {
		t.Fatal("one key produced two streams")
	}
	if draws(9, 3) == draws(9, 4) || draws(9, 3) == draws(10, 3) {
		t.Fatal("distinct keys share a stream")
	}
}

// Estimate draws the full budget when there is no threshold to
// decide, stops early on a clear-cut one, and sums in draw order.
func TestEstimate(t *testing.T) {
	r := Stream(1, 0)
	var vals []float64
	draw := func() float64 {
		v := r.Float64() * 0.1
		vals = append(vals, v)
		return v
	}
	p, n, early := Estimate(1000, 64, 0, 1e-6, draw)
	if n != 1000 || early || len(vals) != 1000 {
		t.Fatalf("qp=0: drew %d (reported %d, early %v), want the full 1000", len(vals), n, early)
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	if p != sum/1000 {
		t.Fatalf("estimate %v != mean of the draws %v", p, sum/1000)
	}

	vals = vals[:0]
	p, n, early = Estimate(1000, 64, 0.5, 1e-6, draw)
	if !early || n >= 1000 || n%64 != 0 || len(vals) != n || p >= 0.5 {
		t.Fatalf("clear-cut reject: p=%v n=%d early=%v drawn=%d", p, n, early, len(vals))
	}
	if p, n, _ := Estimate(0, 64, 0.5, 1e-6, draw); p != 0 || n != 0 {
		t.Fatalf("empty budget: p=%v n=%d", p, n)
	}
}
