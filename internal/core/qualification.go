package core

import (
	"math/rand"
	"sort"

	"repro/internal/geom"
	"repro/internal/mcbound"
	"repro/internal/pdf"
)

// PointQualification computes a point object's qualification
// probability by query–data duality (Lemma 3):
//
//	pi = ∫_{R(xi,yi) ∩ U0} f0(x,y) dxdy
//
// i.e. the issuer-pdf mass in the query rectangle re-centered at the
// object. Every pdf in this repository evaluates rectangle mass in
// closed form, so this is exact — for the uniform issuer it reduces to
// the paper's Equation 6 (overlap area over |U0|).
func PointQualification(issuer pdf.PDF, s geom.Point, w, h float64) float64 {
	return clampProb(issuer.MassIn(geom.RectCentered(s, w, h)))
}

// PointQualificationBasic computes the same probability the basic way
// (§3.3, Equation 2): sample the issuer's location n times and count
// how often the object falls inside the range query formed at each
// sample. This is the baseline the duality formula replaces. The
// samples come from the stream keyed by (seed, 0); see mcbound.Stream.
func PointQualificationBasic(issuer pdf.PDF, s geom.Point, w, h float64, n int, seed int64) float64 {
	p, _, _ := mcbound.Estimate(n, 0, 0, 0, pointHit(issuer, s, w, h, mcbound.Stream(seed, 0)))
	return p
}

// pointHit is the sample of the basic point estimator: 1 when the
// range query formed at one issuer draw contains s, else 0.
func pointHit(issuer pdf.PDF, s geom.Point, w, h float64, rng *rand.Rand) func() float64 {
	return func() float64 {
		if geom.RectCentered(issuer.Sample(rng), w, h).Contains(s) {
			return 1
		}
		return 0
	}
}

// DualityKernel returns Q(x,y) of Lemma 3/4: the qualification
// probability a point object at (x,y) would have — the issuer-pdf mass
// of the query rectangle centered at (x,y). It is zero outside R⊕U0.
func DualityKernel(issuer pdf.PDF, w, h float64) func(geom.Point) float64 {
	return func(p geom.Point) float64 {
		return issuer.MassIn(geom.RectCentered(p, w, h))
	}
}

// AdaptiveMode selects whether Monte-Carlo refinement of threshold
// queries may terminate early once a confidence bound has decided the
// candidate.
type AdaptiveMode int

const (
	// AdaptiveAuto (the default) enables early termination whenever
	// the query carries a probability threshold. Unconstrained queries
	// always draw the full budget (there is no decision to prove).
	AdaptiveAuto AdaptiveMode = iota
	// AdaptiveOff always draws the full MCSamples budget — the mode to
	// use when the estimate itself (not just the threshold decision)
	// must carry full-budget accuracy.
	AdaptiveOff
)

// ObjectEvalConfig tunes uncertain-object refinement.
type ObjectEvalConfig struct {
	// ForceMonteCarlo evaluates by sampling even when a closed form or
	// quadrature exists — the mode the paper benchmarks for
	// non-uniform pdfs (§6.2, "we have used the Monte-Carlo
	// technique... at least 200 samples for C-IPQ and 250 for C-IUQ").
	ForceMonteCarlo bool
	// MCSamples is the Monte-Carlo sample count (default 256, matching
	// the paper's sensitivity analysis scale).
	MCSamples int
	// Adaptive controls threshold early termination for Monte-Carlo
	// refinement (default AdaptiveAuto). For a threshold query,
	// sampling proceeds in blocks of MCBlock and stops as soon as
	// either (a) the remaining draws cannot change which side of the
	// threshold the full-budget estimate lands on (a certainty bound:
	// kernel values lie in [0, 1]), or (b) a confidence bound — the
	// tighter of Hoeffding and empirical Bernstein, at confidence
	// 1−MCDelta — separates the running mean from the threshold.
	// Clear-cut candidates settle after a fraction of the budget;
	// borderline ones still draw all MCSamples.
	Adaptive AdaptiveMode
	// MCBlock is the sample-block size between early-termination bound
	// checks (default 64).
	MCBlock int
	// MCDelta is the per-check failure probability of the confidence
	// bounds (default 1e-6): the chance that an early stop misjudges a
	// candidate whose true probability sits on the other side of the
	// threshold. Smaller values stop later but more safely.
	MCDelta float64
	// QuadratureNodes is the per-axis Gauss–Legendre order for smooth
	// separable factors without closed form (default 24).
	QuadratureNodes int
}

func (c ObjectEvalConfig) withDefaults() ObjectEvalConfig {
	if c.MCSamples <= 0 {
		c.MCSamples = 256
	}
	if c.MCBlock <= 0 {
		c.MCBlock = 64
	}
	if c.MCDelta <= 0 {
		c.MCDelta = 1e-6
	}
	if c.QuadratureNodes <= 0 {
		c.QuadratureNodes = 24
	}
	return c
}

// ObjectQualification computes an uncertain object's qualification
// probability by Lemma 4:
//
//	pi = ∫_{Ui ∩ (R⊕U0)} fi(x,y) · Q(x,y) dxdy
//
// Evaluation strategy, fastest applicable first:
//
//   - both pdfs separable and the issuer's marginals piecewise linear
//     (uniform/histogram): exact closed form via partial moments;
//   - both pdfs separable: two one-dimensional Gauss–Legendre
//     integrals (spectrally accurate for the smooth Gaussian kernel);
//   - otherwise (or when cfg.ForceMonteCarlo): Monte-Carlo over the
//     object's own distribution, pi = E_fi[Q(X)], which is unbiased
//     because Q vanishes outside R⊕U0. The draws come from the stream
//     keyed by (0, 0) (see mcbound.Stream); the engine keys each
//     candidate's stream by the request seed and the object id.
//
// When evaluating many candidates of one query, prepare a reusable
// ObjectQualifier instead — this convenience form rebuilds the
// issuer-side state (expanded support, shifted breakpoints) per call.
func ObjectQualification(issuer, obj pdf.PDF, w, h float64, cfg ObjectEvalConfig) float64 {
	return NewObjectQualifier(issuer, w, h).Qualify(obj, cfg)
}

// ObjectQualificationBasic evaluates Equation 4 directly (§3.3): sample
// the issuer's position n times; at each position integrate the
// object's pdf over the overlap of its region with the range query
// (Equation 3, exact via MassIn); average. The cost is n rectangle-mass
// integrations per object regardless of how little of U0 matters,
// which is what Figure 8 shows losing to the enhanced method. The
// samples come from the stream keyed by (seed, 0); see mcbound.Stream.
func ObjectQualificationBasic(issuer, obj pdf.PDF, w, h float64, n int, seed int64) float64 {
	p, _, _ := mcbound.Estimate(n, 0, 0, 0, objectMass(issuer, obj, w, h, mcbound.Stream(seed, 0)))
	return p
}

// objectMass is the sample of the basic object estimator: the
// object's mass in the range query formed at one issuer draw.
func objectMass(issuer, obj pdf.PDF, w, h float64, rng *rand.Rand) func() float64 {
	return func() float64 { return obj.MassIn(geom.RectCentered(issuer.Sample(rng), w, h)) }
}

// axisFactor computes the one-dimensional factor of Lemma 4 for one
// axis:
//
//	∫_a^b fObj(x) · g(x) dx,  g(x) = FIss(x+w) − FIss(x−w)
//
// where FIss is the issuer marginal's CDF. When FIss is piecewise
// linear, g is piecewise linear with breakpoints at the issuer CDF
// breakpoints shifted by ±w, and the integral is an exact sum of
// partial moments. Otherwise the factor is integrated by composite
// Gauss–Legendre between the same breakpoints (g has kinks there, so
// splitting preserves spectral accuracy).
//
// The implementation lives on axisPlan (plan.go), which prepares the
// shifted breakpoints once per query; this convenience form rebuilds
// them per call.
func axisFactor(objM, issM pdf.Marginal, a, b, w float64, glNodes int) float64 {
	ap := newAxisPlan(issM, w)
	sc := acquireScratch()
	defer releaseScratch(sc)
	return ap.factor(objM, a, b, glNodes, sc)
}

// shiftedBreakpoints returns the sorted breakpoints {p±w} clipped to
// [a, b], with a and b included — the reference construction that
// axisPlan.cutsInto reproduces without per-candidate sorting.
func shiftedBreakpoints(points []float64, w, a, b float64) []float64 {
	cuts := make([]float64, 0, 2*len(points)+2)
	cuts = append(cuts, a, b)
	for _, p := range points {
		for _, x := range [2]float64{p - w, p + w} {
			if x > a && x < b {
				cuts = append(cuts, x)
			}
		}
	}
	sort.Float64s(cuts)
	return cuts
}
