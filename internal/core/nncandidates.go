package core

import (
	"cmp"
	"context"
	"errors"
	"math"
	"slices"
	"time"

	"repro/internal/geom"
	"repro/internal/index/rtree"
	"repro/internal/nn"
	"repro/internal/uncertain"
)

// This file exposes the two halves of a KindNN evaluation as separate
// steps so a fleet router can run the candidate-pruning stage on every
// shard and the refinement stage once, centrally:
//
//	per shard:  set, _ := snap.NNCandidates(ctx, req, opts)   // local tau + candidates
//	router:     tau  = min over shards of set.Tau             // global pruning radius
//	            cands = union, filtered MinDist <= tau        // exact candidate set
//	            res  = EvaluateNNCandidates(ctx, req, cands, tau)
//
// Because every indexed point lives on exactly one shard, the global
// minimum of the local taus equals the single-engine tau, and the
// filtered union equals the single-engine candidate set; refinement is
// a pure function of (request seed, sorted candidate set), so the
// merged result is bit-identical to evaluating req against one engine
// holding all the points.

// NNCandidate is one point surfaced by the NN candidate-pruning stage.
type NNCandidate struct {
	ID  uncertain.ID
	Loc [2]float64
}

// NNCandidateSet is the outcome of the pruning stage on one snapshot.
type NNCandidateSet struct {
	// Tau is the local pruning radius: the smallest maximum distance
	// any indexed point has to the issuer region (+Inf when the
	// snapshot holds no points).
	Tau float64
	// Candidates holds the points whose minimum distance to the issuer
	// region is at most min(Tau, TauBound), sorted by ID.
	Candidates []NNCandidate
	// Truncated reports that Limit cut the candidate list short; the
	// caller must re-issue with a tighter TauBound or larger Limit
	// before the set can be trusted.
	Truncated bool
	// NodeAccesses counts index pages read by the tau search and probe.
	NodeAccesses int64
	// Version is the engine version the collection observed.
	Version uint64
}

// NNCandidateOptions tunes NN candidate collection.
type NNCandidateOptions struct {
	// TauBound, when positive and finite, caps the collection radius
	// at min(local tau, TauBound). A router that has already merged a
	// tighter global tau passes it here so a shard with a loose local
	// tau does not ship an oversized candidate list.
	TauBound float64
	// Limit, when positive, caps the number of candidates returned;
	// exceeding it sets Truncated instead of growing the response
	// without bound.
	Limit int
}

// NNCandidates runs the candidate-pruning stage of a KindNN request
// against the snapshot: the local tau branch-and-bound plus the range
// probe of the tau-expanded issuer region. It never samples, so the
// result is independent of Seed and NNSamples.
func (s *Snapshot) NNCandidates(ctx context.Context, req Request, o NNCandidateOptions) (NNCandidateSet, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := req.Validate(); err != nil {
		return NNCandidateSet{}, err
	}
	if req.Kind != KindNN {
		return NNCandidateSet{}, badRequest("kind", errors.New("NNCandidates requires a nn request"))
	}
	st, err := s.acquireUse()
	if err != nil {
		return NNCandidateSet{}, err
	}
	defer s.e.releaseState(st)

	set := NNCandidateSet{Version: st.version}
	if st.points.Len() == 0 {
		set.Tau = math.Inf(1)
		return set, nil
	}
	u0 := req.Issuer.Region()
	tau, na, err := nnTau(st.pointIdx, u0)
	if err != nil {
		return NNCandidateSet{}, err
	}
	set.Tau = tau
	set.NodeAccesses = na
	if err := canceled(ctx); err != nil {
		return NNCandidateSet{}, err
	}

	eff := tau
	if o.TauBound > 0 && o.TauBound < eff {
		eff = o.TauBound
	}
	na, err = st.pointIdx.SearchCounted(u0.Expand(eff, eff), nil, func(en rtree.Entry) bool {
		if canceled(ctx) != nil {
			return false
		}
		if set.Truncated {
			return false
		}
		p, ok := st.points.Get(uncertain.ID(en.Ref))
		if !ok {
			return true
		}
		if u0.MinDist(p.Loc) <= eff {
			if o.Limit > 0 && len(set.Candidates) >= o.Limit {
				set.Truncated = true
				return false
			}
			set.Candidates = append(set.Candidates, NNCandidate{ID: p.ID, Loc: [2]float64{p.Loc.X, p.Loc.Y}})
		}
		return true
	})
	if err != nil {
		return NNCandidateSet{}, err
	}
	if err := canceled(ctx); err != nil {
		return NNCandidateSet{}, err
	}
	set.NodeAccesses += na
	slices.SortFunc(set.Candidates, func(a, b NNCandidate) int {
		return cmp.Compare(a.ID, b.ID)
	})
	return set, nil
}

// EvaluateNNCandidates runs the refinement stage of a KindNN request
// over an explicitly supplied candidate set and pruning radius tau —
// the router-side completion of a cross-shard NN evaluation. The
// candidate slice is the merged union of the shards' NNCandidates
// results filtered to MinDist <= tau; duplicates by ID are rejected.
// Seed handling, sample budgeting, threshold acceptance, ordering, and
// top-K truncation mirror a single-engine evaluation exactly, so the
// matches (values and order) are bit-identical to one.
func EvaluateNNCandidates(ctx context.Context, req Request, candidates []NNCandidate, tau float64) (Result, error) {
	start := time.Now()
	if ctx == nil {
		ctx = context.Background()
	}
	if err := req.Validate(); err != nil {
		return Result{}, err
	}
	if req.Kind != KindNN {
		return Result{}, badRequest("kind", errors.New("EvaluateNNCandidates requires a nn request"))
	}
	opts := req.Options.withDefaults()
	ctx, cancel := opts.evalContext(ctx)
	defer cancel()

	samples := req.NNSamples
	if samples <= 0 {
		samples = nn.DefaultSamples
	}

	cands := make([]uncertain.PointObject, 0, len(candidates))
	for _, c := range candidates {
		cands = append(cands, uncertain.PointObject{ID: c.ID, Loc: geom.Pt(c.Loc[0], c.Loc[1])})
	}
	// Refinement tie-breaking depends on slice order: sort by id, as
	// the single-engine path does, and refuse duplicate ids (a merge
	// bug upstream) rather than silently double-counting a point.
	slices.SortFunc(cands, func(a, b uncertain.PointObject) int {
		return cmp.Compare(a.ID, b.ID)
	})
	for i := 1; i < len(cands); i++ {
		if cands[i].ID == cands[i-1].ID {
			return Result{}, badRequest("candidates", errors.New("duplicate candidate id"))
		}
	}

	var res Result
	res.Tau = tau
	res.Cost.Candidates = len(cands)
	res.Cost.Refined = len(cands)
	if opts.MaxSamples > 0 && len(cands) > 0 && int64(samples) > opts.MaxSamples/int64(len(cands)) {
		return Result{}, ErrSampleBudget
	}
	probs, stats, err := refineNN(ctx, cands, req, opts, samples)
	if err != nil {
		return Result{}, err
	}
	res.Cost.SamplesUsed = stats.Samples
	res.Cost.EarlyStopped = stats.EarlyStopped
	for i, p := range probs {
		if accept(p, req.Threshold) {
			res.Matches = append(res.Matches, Match{ID: cands[i].ID, P: p})
		} else {
			res.Cost.BelowThreshold++
		}
	}
	sortMatches(res.Matches)
	res.Matches = res.TopK(req.K)
	res.Cost.Duration = time.Since(start)
	return res, nil
}
