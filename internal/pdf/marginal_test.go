package pdf

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestUniformMarginalBasics(t *testing.T) {
	u, err := NewUniformMarginal(10, 30)
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := u.Bounds(); lo != 10 || hi != 30 {
		t.Fatalf("Bounds = (%g, %g)", lo, hi)
	}
	if got := u.At(20); !approx(got, 0.05, 1e-12) {
		t.Fatalf("At(20) = %g, want 0.05", got)
	}
	if got := u.At(9); got != 0 {
		t.Fatalf("At(9) = %g, want 0", got)
	}
	if got := u.CDF(20); !approx(got, 0.5, 1e-12) {
		t.Fatalf("CDF(20) = %g, want 0.5", got)
	}
	if got := u.InvCDF(0.25); !approx(got, 15, 1e-12) {
		t.Fatalf("InvCDF(0.25) = %g, want 15", got)
	}
}

func TestUniformMarginalRejectsInverted(t *testing.T) {
	if _, err := NewUniformMarginal(5, 4); err == nil {
		t.Fatal("inverted interval accepted")
	}
	for _, iv := range [][2]float64{{-1.7e308, 1.7e308}, {0, math.Inf(1)}, {math.NaN(), 1}} {
		if _, err := NewUniformMarginal(iv[0], iv[1]); !errors.Is(err, ErrNonFinite) {
			t.Fatalf("interval %v: err %v, want ErrNonFinite", iv, err)
		}
	}
}

func TestUniformMarginalDegenerate(t *testing.T) {
	u, err := NewUniformMarginal(7, 7)
	if err != nil {
		t.Fatalf("degenerate interval rejected: %v", err)
	}
	m0, m1 := u.PartialMoments(0, 10)
	if m0 != 1 || m1 != 7 {
		t.Fatalf("point-mass moments = (%g, %g), want (1, 7)", m0, m1)
	}
	m0, _ = u.PartialMoments(8, 10)
	if m0 != 0 {
		t.Fatalf("moments away from point mass = %g, want 0", m0)
	}
}

func TestUniformPartialMoments(t *testing.T) {
	u, _ := NewUniformMarginal(0, 10)
	m0, m1 := u.PartialMoments(2, 6)
	if !approx(m0, 0.4, 1e-12) {
		t.Fatalf("m0 = %g, want 0.4", m0)
	}
	// ∫_2^6 x/10 dx = (36-4)/20 = 1.6
	if !approx(m1, 1.6, 1e-12) {
		t.Fatalf("m1 = %g, want 1.6", m1)
	}
	// Full support: m0 = 1, m1 = mean = 5.
	m0, m1 = u.PartialMoments(-100, 100)
	if !approx(m0, 1, 1e-12) || !approx(m1, 5, 1e-12) {
		t.Fatalf("full moments = (%g, %g), want (1, 5)", m0, m1)
	}
}

func TestTruncNormalBasics(t *testing.T) {
	tn, err := NewTruncNormalMarginal(-3, 3, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := tn.CDF(0); !approx(got, 0.5, 1e-12) {
		t.Fatalf("CDF(0) = %g, want 0.5 by symmetry", got)
	}
	if got := tn.CDF(-3); got != 0 {
		t.Fatalf("CDF(lo) = %g, want 0", got)
	}
	if got := tn.CDF(3); got != 1 {
		t.Fatalf("CDF(hi) = %g, want 1", got)
	}
	// Density is symmetric and peaked at the mean.
	if tn.At(0) <= tn.At(1) || !approx(tn.At(1), tn.At(-1), 1e-12) {
		t.Fatal("density not symmetric/peaked at mean")
	}
	// Full-support moments: mass 1, mean 0 by symmetry.
	m0, m1 := tn.PartialMoments(-3, 3)
	if !approx(m0, 1, 1e-12) || !approx(m1, 0, 1e-12) {
		t.Fatalf("full moments = (%g, %g), want (1, 0)", m0, m1)
	}
}

func TestTruncNormalInvCDFRoundTrip(t *testing.T) {
	tn, _ := NewTruncNormalMarginal(100, 200, 150, 16.7)
	for _, p := range []float64{0, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1} {
		x := tn.InvCDF(p)
		if got := tn.CDF(x); !approx(got, p, 1e-9) {
			t.Errorf("CDF(InvCDF(%g)) = %g", p, got)
		}
	}
}

func TestTruncNormalRejectsBadInput(t *testing.T) {
	if _, err := NewTruncNormalMarginal(1, 1, 0, 1); err == nil {
		t.Fatal("empty interval accepted")
	}
	if _, err := NewTruncNormalMarginal(0, 1, 0.5, 0); err == nil {
		t.Fatal("zero sigma accepted")
	}
	if _, err := NewTruncNormalMarginal(0, 1, 0.5, -2); err == nil {
		t.Fatal("negative sigma accepted")
	}
	if _, err := NewTruncNormalMarginal(0, 1, 0.5, math.NaN()); err == nil {
		t.Fatal("NaN sigma accepted")
	}
	if _, err := NewTruncNormalMarginal(-1.7e308, 1.7e308, 0, 1); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("overflowing interval: err %v, want ErrNonFinite", err)
	}
}

func TestTruncNormalPartialMomentsAgainstNumeric(t *testing.T) {
	tn, _ := NewTruncNormalMarginal(-2, 5, 1, 1.5)
	// Trapezoidal numeric integration as independent reference.
	numM0, numM1 := 0.0, 0.0
	const n = 200000
	a, b := -1.0, 3.0
	h := (b - a) / n
	for i := 0; i <= n; i++ {
		x := a + float64(i)*h
		w := h
		if i == 0 || i == n {
			w = h / 2
		}
		f := tn.At(x)
		numM0 += w * f
		numM1 += w * f * x
	}
	m0, m1 := tn.PartialMoments(a, b)
	if !approx(m0, numM0, 1e-6) {
		t.Fatalf("m0 = %g, numeric %g", m0, numM0)
	}
	if !approx(m1, numM1, 1e-6) {
		t.Fatalf("m1 = %g, numeric %g", m1, numM1)
	}
}

func TestHistogramMarginal(t *testing.T) {
	h, err := NewHistogramMarginal([]float64{0, 1, 3, 6}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	// Total mass 6 normalized: bins carry 1/6, 2/6, 3/6.
	if got := h.CDF(1); !approx(got, 1.0/6, 1e-12) {
		t.Fatalf("CDF(1) = %g, want 1/6", got)
	}
	if got := h.CDF(3); !approx(got, 0.5, 1e-12) {
		t.Fatalf("CDF(3) = %g, want 0.5", got)
	}
	if got := h.CDF(6); got != 1 {
		t.Fatalf("CDF(6) = %g, want 1", got)
	}
	// Density inside bin 2 (width 3, mass 1/2) = 1/6.
	if got := h.At(4); !approx(got, 1.0/6, 1e-12) {
		t.Fatalf("At(4) = %g, want 1/6", got)
	}
	// InvCDF at the bin boundary mass.
	if got := h.InvCDF(0.5); !approx(got, 3, 1e-12) {
		t.Fatalf("InvCDF(0.5) = %g, want 3", got)
	}
}

func TestHistogramMarginalZeroBins(t *testing.T) {
	h, err := NewHistogramMarginal([]float64{0, 1, 2, 3}, []float64{1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	// Mass 0.5 sits exactly at the end of bin 0 / start of bin 2.
	x := h.InvCDF(0.5)
	if got := h.CDF(x); !approx(got, 0.5, 1e-12) {
		t.Fatalf("CDF(InvCDF(0.5)) = %g via x=%g", got, x)
	}
	m0, _ := h.PartialMoments(1, 2)
	if m0 != 0 {
		t.Fatalf("zero bin mass = %g, want 0", m0)
	}
}

func TestHistogramMarginalRejectsBadInput(t *testing.T) {
	if _, err := NewHistogramMarginal([]float64{0, 1}, []float64{1, 2}); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	if _, err := NewHistogramMarginal([]float64{0, 0, 1}, []float64{1, 1}); err == nil {
		t.Fatal("non-increasing edges accepted")
	}
	if _, err := NewHistogramMarginal([]float64{0, 1, 2}, []float64{-1, 2}); err == nil {
		t.Fatal("negative weight accepted")
	}
	if _, err := NewHistogramMarginal([]float64{0, 1, 2}, []float64{0, 0}); err == nil {
		t.Fatal("zero total weight accepted")
	}
}

// marginalsUnderTest builds one of each marginal kind for property
// tests, keyed by a small integer.
func marginalsUnderTest(t *testing.T) []Marginal {
	t.Helper()
	u, err := NewUniformMarginal(-5, 12)
	if err != nil {
		t.Fatal(err)
	}
	tn, err := NewTruncNormalMarginal(0, 100, 40, 22)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHistogramMarginal(
		[]float64{0, 2, 3, 7, 11, 20},
		[]float64{5, 0, 2, 9, 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	return []Marginal{u, tn, h}
}

func TestPropCDFMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, m := range marginalsUnderTest(t) {
		lo, hi := m.Bounds()
		f := func() bool {
			a := lo + rng.Float64()*(hi-lo)
			b := lo + rng.Float64()*(hi-lo)
			if a > b {
				a, b = b, a
			}
			return m.CDF(a) <= m.CDF(b)+1e-12
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%T: %v", m, err)
		}
	}
}

func TestPropPartialMomentsAdditive(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, m := range marginalsUnderTest(t) {
		lo, hi := m.Bounds()
		f := func() bool {
			xs := []float64{
				lo + rng.Float64()*(hi-lo),
				lo + rng.Float64()*(hi-lo),
				lo + rng.Float64()*(hi-lo),
			}
			a, mid, b := minMaxMid(xs)
			m0ab, m1ab := m.PartialMoments(a, b)
			m0l, m1l := m.PartialMoments(a, mid)
			m0r, m1r := m.PartialMoments(mid, b)
			return approx(m0ab, m0l+m0r, 1e-9) && approx(m1ab, m1l+m1r, 1e-7)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%T: %v", m, err)
		}
	}
}

func TestPropMomentsMatchCDF(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, m := range marginalsUnderTest(t) {
		lo, hi := m.Bounds()
		f := func() bool {
			a := lo + rng.Float64()*(hi-lo)
			b := lo + rng.Float64()*(hi-lo)
			if a > b {
				a, b = b, a
			}
			m0, _ := m.PartialMoments(a, b)
			return approx(m0, m.CDF(b)-m.CDF(a), 1e-9)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%T: %v", m, err)
		}
	}
}

func TestPropSamplesInBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, m := range marginalsUnderTest(t) {
		lo, hi := m.Bounds()
		for i := 0; i < 2000; i++ {
			x := m.Sample(rng)
			if x < lo-1e-9 || x > hi+1e-9 {
				t.Fatalf("%T: sample %g outside [%g, %g]", m, x, lo, hi)
			}
		}
	}
}

func TestSampleDistributionMatchesCDF(t *testing.T) {
	// Kolmogorov–Smirnov-style check: empirical CDF within tolerance of
	// analytic CDF at several probe points.
	rng := rand.New(rand.NewSource(15))
	const n = 40000
	for _, m := range marginalsUnderTest(t) {
		lo, hi := m.Bounds()
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = m.Sample(rng)
		}
		for _, q := range []float64{0.2, 0.4, 0.6, 0.8} {
			x := lo + q*(hi-lo)
			var count int
			for _, s := range samples {
				if s <= x {
					count++
				}
			}
			emp := float64(count) / n
			if !approx(emp, m.CDF(x), 0.02) {
				t.Errorf("%T: empirical CDF(%g) = %g, analytic %g", m, x, emp, m.CDF(x))
			}
		}
	}
}

func minMaxMid(xs []float64) (lo, mid, hi float64) {
	lo, mid, hi = xs[0], xs[1], xs[2]
	if lo > mid {
		lo, mid = mid, lo
	}
	if mid > hi {
		mid, hi = hi, mid
	}
	if lo > mid {
		lo, mid = mid, lo
	}
	return lo, mid, hi
}
