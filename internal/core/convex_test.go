package core

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/pdf"
	"repro/internal/uncertain"
)

// These tests exercise the engine end to end with non-rectangular
// uncertainty regions (the paper's §7 future work): disc-shaped
// issuers and objects flow through every path — duality point
// qualification stays exact (convex MassIn is exact), object
// refinement takes the Monte-Carlo route, and U-catalogs come from the
// bisection fallback.

func discIssuer(t testing.TB, c geom.Point, r float64) *uncertain.Object {
	t.Helper()
	d, err := pdf.NewDisc(c, r, 48)
	if err != nil {
		t.Fatal(err)
	}
	iss, err := uncertain.NewObject(-1, d, uncertain.PaperCatalogProbs())
	if err != nil {
		t.Fatal(err)
	}
	return iss
}

func TestDiscIssuerPointQualificationAgainstMC(t *testing.T) {
	iss := discIssuer(t, geom.Pt(100, 100), 40)
	rng := rand.New(rand.NewSource(301))
	for i := 0; i < 12; i++ {
		s := geom.Pt(40+rng.Float64()*120, 40+rng.Float64()*120)
		w, h := 10+rng.Float64()*50, 10+rng.Float64()*50
		exact := PointQualification(iss.PDF, s, w, h)
		mc := PointQualificationBasic(iss.PDF, s, w, h, 50000, int64(i))
		if !approx(exact, mc, 0.012) {
			t.Fatalf("point %v: clip-exact %g vs MC %g", s, exact, mc)
		}
	}
}

func TestDiscObjectQualificationAgainstBasic(t *testing.T) {
	issuer := pdf.MustUniform(geom.RectCentered(geom.Pt(0, 0), 30, 30))
	obj, err := pdf.NewDisc(geom.Pt(40, 10), 25, 48)
	if err != nil {
		t.Fatal(err)
	}
	got := ObjectQualification(issuer, obj, 30, 30, ObjectEvalConfig{MCSamples: 80000})
	want := ObjectQualificationBasic(issuer, obj, 30, 30, 80000, 302)
	if !approx(got, want, 0.012) {
		t.Fatalf("disc object: MC duality %g vs basic %g", got, want)
	}
}

func TestDiscCatalogBounds(t *testing.T) {
	// p-bounds of a disc come from the bisection path; verify the
	// defining property.
	d, err := pdf.NewDisc(geom.Pt(0, 0), 50, 64)
	if err != nil {
		t.Fatal(err)
	}
	b := uncertain.ComputeBound(d, 0.25)
	sup := d.Support()
	left := d.MassIn(geom.Rect{Lo: sup.Lo, Hi: geom.Pt(b.Left, sup.Hi.Y)})
	if !approx(left, 0.25, 1e-6) {
		t.Fatalf("mass left of Left = %g, want 0.25", left)
	}
	// Symmetry of the disc.
	if !approx(b.Left, -b.Right, 1e-6) || !approx(b.Bottom, -b.Top, 1e-6) {
		t.Fatalf("disc bound not symmetric: %+v", b)
	}
}

func TestDiscEngineEndToEnd(t *testing.T) {
	// Mixed database: rectangular and disc-shaped uncertain objects;
	// disc-shaped issuer. Constrained query answers must agree between
	// the pruned and unpruned paths (pruning built on bisection
	// catalogs must stay sound for convex pdfs).
	rng := rand.New(rand.NewSource(303))
	var objs []*uncertain.Object
	for i := 0; i < 400; i++ {
		c := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		var p pdf.PDF
		var err error
		if i%2 == 0 {
			p, err = pdf.NewDisc(c, 3+rng.Float64()*25, 24)
		} else {
			p, err = pdf.NewUniform(geom.RectCentered(c, 3+rng.Float64()*25, 3+rng.Float64()*25))
		}
		if err != nil {
			t.Fatal(err)
		}
		o, err := uncertain.NewObject(uncertain.ID(i), p, uncertain.PaperCatalogProbs())
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, o)
	}
	e, err := NewEngine(nil, objs, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		iss := discIssuer(t, geom.Pt(rng.Float64()*1000, rng.Float64()*1000), 40)
		qp := 0.2 + rng.Float64()*0.5
		q := Query{Issuer: iss, W: 80, H: 80, Threshold: qp}
		// Fixed-seed Monte-Carlo makes the two paths' refinements
		// produce identical probabilities for the same object.
		mkOpts := func(disable bool) EvalOptions {
			o := EvalOptions{Object: ObjectEvalConfig{MCSamples: 2000}}
			if disable {
				o.DisablePExpansion = true
				o.DisableIndexPruning = true
				o.Strategies = StrategySet{DisableStrategy1: true, DisableStrategy2: true, DisableStrategy3: true}
			}
			return o
		}
		pruned, err := e.EvaluateUncertain(q, mkOpts(false))
		if err != nil {
			t.Fatal(err)
		}
		unpruned, err := e.EvaluateUncertain(q, mkOpts(true))
		if err != nil {
			t.Fatal(err)
		}
		// Every unpruned match comfortably above the threshold must be
		// found by the pruned path too (MC noise near the threshold
		// can differ because the two paths refine objects in different
		// orders from a shared stream; use a 0.05 guard band).
		prunedMap := matchesToMap(pruned.Matches)
		for _, m := range unpruned.Matches {
			if m.P < qp+0.05 {
				continue
			}
			if _, ok := prunedMap[m.ID]; !ok {
				t.Fatalf("trial %d: pruned path lost confident object %d (p=%g, qp=%g)",
					trial, m.ID, m.P, qp)
			}
		}
	}
}
