package bench

import (
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/mcbound"
	"repro/internal/pdf"
)

// SensitivityRow is one sample-count operating point of the
// Monte-Carlo sensitivity analysis.
type SensitivityRow struct {
	Samples    int
	MeanAbsErr float64 // mean |MC - exact| over candidate probabilities
	MaxAbsErr  float64
	TimePerOp  time.Duration // mean time per refinement
}

// SensitivityResult reproduces the paper's §6.2 sensitivity analysis:
// how many Monte-Carlo samples are needed before qualification
// probabilities stabilize ("we need at least 200 samples for
// evaluating a C-IPQ, and 250 samples for C-IUQ"). Ground truth comes
// from the closed-form/quadrature evaluators, which the paper did not
// have for Gaussian pdfs — this repository's exact paths make the
// error measurable directly.
type SensitivityResult struct {
	Kind string // "C-IPQ" or "C-IUQ"
	Rows []SensitivityRow
}

// Render writes the analysis as an aligned table.
func (r SensitivityResult) Render(w io.Writer) {
	fmt.Fprintf(w, "== sensitivity (%s, Gaussian pdfs): Monte-Carlo samples vs error ==\n", r.Kind)
	fmt.Fprintf(w, "%10s %14s %14s %14s\n", "samples", "mean |err|", "max |err|", "time/refine")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%10d %14.5f %14.5f %14s\n",
			row.Samples, row.MeanAbsErr, row.MaxAbsErr, row.TimePerOp)
	}
	fmt.Fprintln(w)
}

// SensitivityIPQ measures point-object refinement error versus sample
// count under a Gaussian issuer, over trials random configurations at
// the paper's default geometry. Configuration i samples from stream i
// at every count, so the rows differ only in how much of one stream
// they use.
func SensitivityIPQ(cfg Config, sampleCounts []int, trials int) (SensitivityResult, error) {
	cfg = cfg.withDefaults()
	if len(sampleCounts) == 0 {
		sampleCounts = []int{25, 50, 100, 200, 400, 800}
	}
	if trials <= 0 {
		trials = 200
	}
	rng := newRng(cfg.Seed + 300)
	p := DefaultParams()

	type scenario struct {
		issuer pdf.PDF
		s      geom.Point
		exact  float64
	}
	scenarios := make([]scenario, 0, trials)
	for len(scenarios) < trials {
		c := geom.Pt(rng.Float64()*dataset.Extent, rng.Float64()*dataset.Extent)
		iss, err := pdf.NewTruncGaussian(geom.RectCentered(c, p.U, p.U), 0, 0)
		if err != nil {
			return SensitivityResult{}, err
		}
		// A point somewhere inside the Minkowski sum, so probabilities
		// are informative rather than mostly zero.
		s := geom.Pt(
			c.X+(rng.Float64()*2-1)*(p.U+p.W),
			c.Y+(rng.Float64()*2-1)*(p.U+p.W),
		)
		exact := core.PointQualification(iss, s, p.W, p.W)
		if exact == 0 {
			continue
		}
		scenarios = append(scenarios, scenario{issuer: iss, s: s, exact: exact})
	}

	res := SensitivityResult{Kind: "C-IPQ"}
	for _, n := range sampleCounts {
		var sumErr, maxErr float64
		start := time.Now()
		for i, sc := range scenarios {
			mc := core.PointQualificationBasic(sc.issuer, sc.s, p.W, p.W, n, int64(i))
			e := math.Abs(mc - sc.exact)
			sumErr += e
			maxErr = math.Max(maxErr, e)
		}
		res.Rows = append(res.Rows, SensitivityRow{
			Samples:    n,
			MeanAbsErr: sumErr / float64(len(scenarios)),
			MaxAbsErr:  maxErr,
			TimePerOp:  time.Since(start) / time.Duration(len(scenarios)),
		})
	}
	return res, nil
}

// SensitivityIUQ is the uncertain-object analogue (paper: 250 samples
// for C-IUQ), comparing Monte-Carlo refinement against the quadrature
// evaluator under Gaussian issuer and object pdfs. Streams are keyed
// per configuration, as in SensitivityIPQ.
func SensitivityIUQ(cfg Config, sampleCounts []int, trials int) (SensitivityResult, error) {
	cfg = cfg.withDefaults()
	if len(sampleCounts) == 0 {
		sampleCounts = []int{25, 50, 100, 250, 500, 1000}
	}
	if trials <= 0 {
		trials = 100
	}
	rng := newRng(cfg.Seed + 301)
	p := DefaultParams()

	type scenario struct {
		issuer, obj pdf.PDF
		exact       float64
	}
	scenarios := make([]scenario, 0, trials)
	for len(scenarios) < trials {
		c := geom.Pt(rng.Float64()*dataset.Extent, rng.Float64()*dataset.Extent)
		iss, err := pdf.NewTruncGaussian(geom.RectCentered(c, p.U, p.U), 0, 0)
		if err != nil {
			return SensitivityResult{}, err
		}
		oc := geom.Pt(
			c.X+(rng.Float64()*2-1)*(p.U+p.W),
			c.Y+(rng.Float64()*2-1)*(p.U+p.W),
		)
		obj, err := pdf.NewTruncGaussian(geom.RectCentered(oc, 20+rng.Float64()*100, 20+rng.Float64()*100), 0, 0)
		if err != nil {
			return SensitivityResult{}, err
		}
		exact := core.ObjectQualification(iss, obj, p.W, p.W, core.ObjectEvalConfig{})
		if exact == 0 {
			continue
		}
		scenarios = append(scenarios, scenario{issuer: iss, obj: obj, exact: exact})
	}

	res := SensitivityResult{Kind: "C-IUQ"}
	for _, n := range sampleCounts {
		var sumErr, maxErr float64
		start := time.Now()
		for i, sc := range scenarios {
			kern := core.DualityKernel(sc.issuer, p.W, p.W)
			rng := mcbound.Stream(int64(i), 0)
			mc, _, _ := mcbound.Estimate(n, 0, 0, 0, func() float64 { return kern(sc.obj.Sample(rng)) })
			e := math.Abs(mc - sc.exact)
			sumErr += e
			maxErr = math.Max(maxErr, e)
		}
		res.Rows = append(res.Rows, SensitivityRow{
			Samples:    n,
			MeanAbsErr: sumErr / float64(len(scenarios)),
			MaxAbsErr:  maxErr,
			TimePerOp:  time.Since(start) / time.Duration(len(scenarios)),
		})
	}
	return res, nil
}
