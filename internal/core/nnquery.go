package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/geom"
	"repro/internal/index/rtree"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/uncertain"
)

// This file evaluates KindNN requests — the paper's §7 imprecise
// nearest-neighbor extension — as a first-class engine query: the
// candidate set comes from branch-and-bound over the pinned
// snapshot's point R-tree (node accesses recorded in Cost, like every
// other kind) instead of a linear scan over a caller-supplied slice,
// and refinement runs package nn's shared-sample-stream tally kernel
// — O(candidates × samples) total work, estimates summing to exactly
// 1, with adaptive early termination against Threshold — so results
// are bit-identical at every worker count and stable under concurrent
// ingestion (the snapshot is immutable).

// nnTau computes tau, the smallest maximum distance any indexed point
// has to u0, by best-first branch-and-bound: interior entries are
// bounded below by max over u0's corners of MinDist(corner, node
// rect) — every point inside the node is at least that far from some
// corner, and the point-to-rect maximum is always attained at a
// corner — so the first leaf popped is the global minimum. Returns
// +Inf over an empty index.
func nnTau(idx *rtree.Tree, u0 geom.Rect) (float64, int64, error) {
	corners := u0.Corners()
	prio := func(e rtree.Entry, leaf bool) float64 {
		if leaf {
			// Points are stored as degenerate rectangles: Lo is the
			// location.
			return u0.MaxDist(e.Rect.Lo)
		}
		var bound float64
		for _, c := range corners {
			if d := e.Rect.MinDist(c); d > bound {
				bound = d
			}
		}
		return bound
	}
	tau := math.Inf(1)
	na, err := idx.BestFirstCounted(prio, math.Inf(1), func(_ rtree.Entry, p float64) (float64, bool) {
		tau = p
		return p, false // first leaf in ascending order is the minimum
	})
	return tau, na, err
}

// evaluateNN answers one KindNN request against this state. req must
// already be validated.
func (st *engineState) evaluateNN(ctx context.Context, req Request) (Result, error) {
	start := time.Now()
	opts := req.Options.withDefaults()
	ctx, cancel := opts.evalContext(ctx)
	defer cancel()

	samples := req.NNSamples
	if samples <= 0 {
		samples = nn.DefaultSamples
	}

	var res Result
	tr := obs.TraceFrom(ctx)
	// An empty point database has an empty answer — not an error —
	// so standing NN requests drain to empty via Left deltas when the
	// last point is deleted, exactly like the range kinds. (The
	// legacy slice-based nn.Evaluate keeps its ErrNoObjects contract.)
	if st.points.Len() == 0 {
		res.Tau = math.Inf(1)
		res.Cost.Duration = time.Since(start)
		return res, nil
	}
	u0 := req.Issuer.Region()

	// Stage 1: candidate pruning through the index. tau bounds the
	// distance within which the nearest neighbor must lie; the
	// candidates are exactly the points whose MinDist to U0 does not
	// exceed it, found by a range probe of the tau-expanded region
	// (its bounding box, with an exact MinDist filter per entry). The
	// filter span covers both the tau branch-and-bound and the probe.
	spF := tr.StartSpan("filter")
	tau, na, err := nnTau(st.pointIdx, u0)
	if err != nil {
		return Result{}, err
	}
	res.Tau = tau
	res.Cost.NodeAccesses = na
	if err := canceled(ctx); err != nil {
		return Result{}, err
	}

	var cands []uncertain.PointObject
	na, err = st.pointIdx.SearchCounted(u0.Expand(tau, tau), nil, func(en rtree.Entry) bool {
		if canceled(ctx) != nil {
			return false
		}
		res.Cost.Candidates++
		p, ok := st.points.Get(uncertain.ID(en.Ref))
		if !ok {
			return true
		}
		if u0.MinDist(p.Loc) <= tau {
			cands = append(cands, p)
		}
		return true
	})
	if err != nil {
		return Result{}, err
	}
	if err := canceled(ctx); err != nil {
		return Result{}, err
	}
	res.Cost.NodeAccesses += na
	// Sort by id so tie-breaking inside the refinement kernel (slice
	// order) is a pure function of the candidate set.
	slices.SortFunc(cands, func(a, b uncertain.PointObject) int {
		return cmp.Compare(a.ID, b.ID)
	})
	res.Cost.Refined = len(cands)
	spF.AddNodes(res.Cost.NodeAccesses)
	spF.SetItems(len(cands))
	if spF.Active() {
		spF.SetNote(fmt.Sprintf("tau=%.4g candidates=%d", tau, res.Cost.Candidates))
	}
	spF.End()

	// The shared stream draws `samples` positions but scans every
	// candidate per sample, so the worst-case refinement work is
	// samples × candidates distance evaluations — that product is what
	// the budget bounds (adaptive retirement can only shrink it). The
	// division form is overflow-safe: samples × len(cands) > MaxSamples
	// iff samples > MaxSamples / len(cands) for positive operands.
	if opts.MaxSamples > 0 && len(cands) > 0 && int64(samples) > opts.MaxSamples/int64(len(cands)) {
		return Result{}, ErrSampleBudget
	}

	spR := tr.StartSpan("refine")
	probs, stats, err := refineNN(ctx, cands, req, opts, samples)
	if err != nil {
		return Result{}, err
	}
	res.Cost.SamplesUsed = stats.Samples
	res.Cost.EarlyStopped = stats.EarlyStopped
	spR.AddSamples(stats.Samples)
	if spR.Active() {
		reason := "full-budget"
		if stats.Converged {
			reason = "converged"
		}
		spR.SetNote(fmt.Sprintf("%s rounds=%d early_stopped=%d",
			reason, stats.Rounds, stats.EarlyStopped))
	}
	spR.End()

	spM := tr.StartSpan("merge")
	for i, p := range probs {
		if accept(p, req.Threshold) {
			res.Matches = append(res.Matches, Match{ID: cands[i].ID, P: p})
		} else {
			res.Cost.BelowThreshold++
		}
	}
	sortMatches(res.Matches)
	res.Matches = res.TopK(req.K)
	spM.SetItems(len(res.Matches))
	spM.End()
	res.Cost.Duration = time.Since(start)
	return res, nil
}

// refineNN computes the per-candidate nearest-neighbor probabilities
// through the shared-stream tally kernel (nn.Refine), serially or
// across req.Workers goroutines. Sample positions are keyed by
// (req.Seed, block index) and merged as integer tallies, so the
// worker count and scheduling cannot change any estimate; ctx is
// polled once per sample block, so deadlines and cancellation bite
// mid-stream. For threshold requests the kernel retires candidates
// the certainty/Hoeffding/Bernstein bounds have decided — the same
// adaptive machinery as the range refiners — unless the caller forced
// AdaptiveOff (the estimates themselves then carry full-budget
// accuracy, as elsewhere).
func refineNN(ctx context.Context, cands []uncertain.PointObject, req Request, opts EvalOptions, samples int) ([]float64, nn.RefineStats, error) {
	if len(cands) == 0 {
		return nil, nn.RefineStats{}, nil
	}
	return nn.Refine(cands, req.Issuer.PDF, req.Seed, nn.RefineConfig{
		Samples:   samples,
		Threshold: req.Threshold,
		Adaptive:  opts.Object.Adaptive == AdaptiveAuto,
		Delta:     opts.Object.MCDelta,
		Workers:   req.Workers,
		Cancel:    func() error { return canceled(ctx) },
	})
}
