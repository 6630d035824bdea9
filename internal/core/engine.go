package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/index/pti"
	"repro/internal/index/rtree"
	"repro/internal/mcbound"
	"repro/internal/obs"
	"repro/internal/uncertain"
)

// EngineOptions configures engine construction.
type EngineOptions struct {
	// CatalogProbs are the shared U-catalog probability values used by
	// the PTI; every uncertain object must carry a catalog containing
	// them. Nil selects the paper's ten values 0, 0.1, ..., 0.9.
	CatalogProbs []float64
	// PointNodeStore and UncertainNodeStore supply index storage
	// (nil = in-memory). Use rtree.NewPagedNodeStore for disk-regime
	// I/O simulation.
	PointNodeStore     rtree.NodeStore
	UncertainNodeStore rtree.NodeStore
	// PointIndexConfig overrides the point R-tree configuration
	// (zero = 4 KiB-page defaults).
	PointIndexConfig rtree.Config
	// MaxSnapshotAge, when positive, bounds how long an open Snapshot
	// may pin its state: snapshots older than the limit are
	// force-closed by the engine (counted in
	// SnapshotStats.ForcedCloses), so a leaked Snapshot.Close cannot
	// wedge superseded-node reclamation indefinitely. In-flight
	// evaluations hold their own pins and are never interrupted; only
	// new evaluations through the snapshot are refused. Zero means no
	// bound.
	MaxSnapshotAge time.Duration

	// Durability knobs, honored by Open (NewEngine builds ephemeral
	// engines and ignores them). FsyncPolicy selects the WAL
	// group-commit policy (default FsyncInterval); FsyncInterval is
	// the flush period for FsyncInterval (default 50ms);
	// CheckpointEvery, when positive, checkpoints automatically after
	// that many committed update batches; WALSegmentBytes caps one WAL
	// segment (default 16 MiB).
	FsyncPolicy     FsyncPolicy
	FsyncInterval   time.Duration
	CheckpointEvery int
	WALSegmentBytes int64
}

// Engine holds a database of point objects and uncertain objects with
// their spatial indexes, and evaluates imprecise location-dependent
// queries against them. Construction bulk-loads both indexes.
//
// Concurrency — MVCC snapshot isolation: the engine's state (object
// tables, index roots, version epoch) is an immutable value swapped
// atomically by writers. Every evaluation pins the state current when
// it starts and runs entirely against that snapshot without holding
// any lock — a long Monte-Carlo refinement never delays ingestion.
// Conversely, writers (Insert*/Delete*/Move*/Replace*/ApplyUpdates)
// never wait for readers, and contend with each other only for an
// instant. The writer pipeline is optimistic:
//
//  1. Build out of lock: the writer loads the current state and
//     constructs the successor copy-on-write against it (path-copied
//     index nodes — each node copied at most once per batch, however
//     many of the batch's updates touch it — and bucket-copied object
//     tables, with the bucket spine doubling when inserts outgrow
//     it). No lock is held; concurrent writers build in parallel
//     against the same base, each into private nodes and buckets.
//  2. Validate and publish: under writeMu the writer checks its base
//     is still the published state; if so it seals the build and
//     swaps the state pointer — a critical section whose cost is
//     independent of both batch size and in-flight readers.
//  3. Retry on conflict: a writer that lost the race discards its
//     private build and rebuilds against the new base (bounded
//     retries, then building under the lock as a fallback), so
//     progress is guaranteed and contention costs only duplicated
//     out-of-lock work.
//
// A query therefore observes either all of an update batch or none of
// it — specifically, the newest state published before the evaluation
// began; use Snapshot to hold one version across several evaluations.
// Superseded index nodes are reclaimed once the last evaluation
// pinning them finishes (see SnapshotStats); EngineOptions.
// MaxSnapshotAge bounds how long a leaked Snapshot can stall that.
//
// The query surface is the Request model: Evaluate(ctx, Request)
// answers any kind (range over uncertain objects or points, nearest
// neighbor) and EvaluateAll is the one fan-out form; both are defined
// on Snapshot with thin Engine wrappers, so every evaluation flows
// through the single pinned-snapshot code path. (The legacy Evaluate*
// shims were removed after one deprecation cycle; their behavior
// survives in legacy_test.go as test-only equivalence coverage.)
//
// Every Response carries its own exact per-request Cost: node
// accesses are counted per search call, not in shared tree state, so
// concurrent requests do not perturb each other's counters. Any
// number of goroutines may Evaluate simultaneously — over in-memory
// or paged node stores (the sharded buffer pool is internally
// synchronized).
//
// Determinism: Request.Seed is the only determinism input. For a
// fixed engine version, request, and seed, evaluation is
// bit-identical at every worker count (serial included): range
// refinement draws one sample stream per candidate object, keyed by
// (seed, object id) (see refineSurvivors), and NN refinement draws one
// shared position stream keyed by (seed, sample block), merged as
// integer tallies (see nn.Refine). Concurrent calls share no sampling
// state, so they need not use distinct seeds.
type Engine struct {
	// writeMu serializes writers; readers never take it.
	writeMu sync.Mutex
	// state is the current published version, swapped under pinMu.
	state atomic.Pointer[engineState]

	// pinMu guards the pin table, graveyard, and snapshot registry —
	// and brackets every state load-and-pin and every publish, so a
	// state can never be reclaimed between a reader loading and
	// pinning it.
	pinMu     sync.Mutex
	pins      map[uint64]*pinEntry
	graveyard []retiredBatch

	// snaps registers every open Snapshot with its creation time, so
	// the age-bound sweep can force-close leaked ones; maxSnapAge <= 0
	// disables the sweep, forcedCloses counts its victims.
	snaps        map[*Snapshot]time.Time
	maxSnapAge   time.Duration
	forcedCloses uint64

	// met is the engine's always-on telemetry, shared with every
	// engineState (see engineMetrics).
	met *engineMetrics

	// dur is the engine's durability attachment (WAL + checkpoints);
	// nil for ephemeral engines built with NewEngine. See Open.
	dur *durability
}

// NewEngine builds an engine over the given datasets. Point object IDs
// and uncertain object IDs each must be unique within their class.
func NewEngine(points []uncertain.PointObject, objects []*uncertain.Object, opts EngineOptions) (*Engine, error) {
	if opts.CatalogProbs == nil {
		opts.CatalogProbs = uncertain.PaperCatalogProbs()
	}
	if opts.PointNodeStore == nil {
		opts.PointNodeStore = rtree.NewMemNodeStore()
	}
	if opts.UncertainNodeStore == nil {
		opts.UncertainNodeStore = rtree.NewMemNodeStore()
	}

	st := &engineState{
		seq:         1,
		publishedAt: time.Now(),
		points:      newCowTable[uncertain.PointObject](len(points)),
		objects:     newCowTable[*uncertain.Object](len(objects)),
		probs:       opts.CatalogProbs,
		met:         newEngineMetrics(),
	}

	items := make([]rtree.Item, len(points))
	for i, p := range points {
		if _, dup := st.points.Get(p.ID); dup {
			return nil, fmt.Errorf("core: duplicate point object id %d", p.ID)
		}
		st.points.put(p.ID, p)
		items[i] = rtree.Item{Rect: geom.RectAt(p.Loc), Ref: rtree.Ref(p.ID)}
	}
	var err error
	st.pointIdx, err = rtree.BulkLoad(opts.PointNodeStore, opts.PointIndexConfig, items)
	if err != nil {
		return nil, fmt.Errorf("core: building point index: %w", err)
	}

	for _, o := range objects {
		if _, dup := st.objects.Get(o.ID); dup {
			return nil, fmt.Errorf("core: duplicate uncertain object id %d", o.ID)
		}
		st.objects.put(o.ID, o)
	}
	st.uncIdx, err = pti.BulkLoad(opts.UncertainNodeStore, opts.CatalogProbs, objects)
	if err != nil {
		return nil, fmt.Errorf("core: building PTI: %w", err)
	}

	return newEngineFromState(st, opts.MaxSnapshotAge), nil
}

// newEngineFromState wraps a sealed state — freshly bulk-loaded or
// restored from a checkpoint — in an engine.
func newEngineFromState(st *engineState, maxSnapAge time.Duration) *Engine {
	e := &Engine{
		pins:       make(map[uint64]*pinEntry),
		snaps:      make(map[*Snapshot]time.Time),
		maxSnapAge: maxSnapAge,
		met:        st.met,
	}
	e.state.Store(st)
	return e
}

// NumPoints returns the number of point objects.
func (e *Engine) NumPoints() int { return e.state.Load().points.Len() }

// NumUncertain returns the number of uncertain objects.
func (e *Engine) NumUncertain() int { return e.state.Load().objects.Len() }

// Version returns the engine's mutation epoch: it advances once per
// committed mutation (or ApplyUpdates batch), never otherwise. Two
// evaluations bracketed by equal versions saw identical data.
func (e *Engine) Version() uint64 { return e.state.Load().version }

// Point returns the point object with the given id (in the current
// version).
func (e *Engine) Point(id uncertain.ID) (uncertain.PointObject, bool) {
	return e.state.Load().points.Get(id)
}

// Object returns the uncertain object with the given id (in the
// current version).
func (e *Engine) Object(id uncertain.ID) (*uncertain.Object, bool) {
	return e.state.Load().objects.Get(id)
}

// PointIndex exposes the current version's point R-tree (for
// statistics). Walking it is only safe while no mutation commits; pin
// a Snapshot to hold a version across mutations.
func (e *Engine) PointIndex() *rtree.Tree { return e.state.Load().pointIdx }

// UncertainIndex exposes the current version's PTI (for statistics).
// Walking it is only safe while no mutation commits; pin a Snapshot
// to hold a version across mutations.
func (e *Engine) UncertainIndex() *pti.Index { return e.state.Load().uncIdx }

// EvalOptions tunes one query evaluation.
type EvalOptions struct {
	// Method selects the enhanced (paper) or basic (§3.3) evaluator.
	Method Method
	// BasicSamples is the issuer-sample count for MethodBasic
	// (default 400).
	BasicSamples int
	// PointMCSamples > 0 makes the enhanced point evaluator refine
	// candidates by Monte-Carlo instead of the closed form — the
	// paper's §6.2 regime for non-uniform pdfs ("at least 200 samples
	// for evaluating a C-IPQ"). Filtering still uses the Minkowski or
	// Qp-expanded query.
	PointMCSamples int
	// Object tunes uncertain-object refinement (Monte-Carlo forcing,
	// sample counts, quadrature order).
	Object ObjectEvalConfig
	// DisablePExpansion probes the index with the full Minkowski sum
	// even for constrained queries — the paper's baseline curve in
	// Figures 11–13.
	DisablePExpansion bool
	// DisableIndexPruning turns off PTI node-level bound pruning,
	// isolating the object-level strategies (ablation).
	DisableIndexPruning bool
	// Strategies toggles the object-level C-IUQ pruning strategies.
	Strategies StrategySet
	// Timeout bounds one query's evaluation wall clock (0 = none).
	// It composes with any deadline already on the caller's context
	// (the Evaluate*Context entry points); cancellation is checked at
	// candidate granularity, and an expired evaluation returns
	// context.DeadlineExceeded with no result. Inside batch serving
	// this is the per-query deadline.
	Timeout time.Duration
	// MaxSamples bounds one query's total Monte-Carlo samples across
	// all candidates (0 = unlimited). A query whose refinement would
	// exceed it stops drawing and returns ErrSampleBudget with no
	// result — the same shape as a deadline expiry, so budget and
	// Timeout compose: whichever trips first ends the query, and in
	// batch serving the rest of the batch continues. Whether a given
	// query exceeds the budget is deterministic (per-candidate sample
	// streams make the total independent of refinement order), so a
	// query either always fits or always errors for a fixed engine,
	// options, and seed. Adaptive early termination (see
	// ObjectEvalConfig.Adaptive) stretches the budget by spending
	// fewer samples on clear-cut candidates.
	MaxSamples int64
}

func (o EvalOptions) withDefaults() EvalOptions {
	if o.BasicSamples <= 0 {
		o.BasicSamples = 400
	}
	o.Object = o.Object.withDefaults()
	return o
}

// evalContext derives the evaluation context: the caller's ctx (nil
// means context.Background) bounded by opts.Timeout when set. The
// returned cancel must always be called.
func (o EvalOptions) evalContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	if o.Timeout > 0 {
		return context.WithTimeout(ctx, o.Timeout)
	}
	return ctx, func() {}
}

// evaluatePoints validates, applies defaults and deadline, and
// dispatches a point-database evaluation against this state.
func (st *engineState) evaluatePoints(ctx context.Context, q Query, opts EvalOptions, seed int64) (Result, error) {
	if err := q.Validate(); err != nil {
		return Result{}, err
	}
	opts = opts.withDefaults()
	ctx, cancel := opts.evalContext(ctx)
	defer cancel()
	switch opts.Method {
	case MethodEnhanced:
		return st.scanPoints(ctx, q, opts, seed, newQueryPlan(q, opts, false).searchReg, opts.PointMCSamples)
	case MethodBasic:
		// The basic method still needs a candidate set; without the
		// paper's observations the best available filter is the plain
		// Minkowski range (its absence would mean scanning the whole
		// database, making the baseline look arbitrarily bad). Every
		// candidate refines by issuer sampling (§3.3).
		return st.scanPoints(ctx, q, opts, seed, q.Expanded(), opts.BasicSamples)
	default:
		return Result{}, fmt.Errorf("%w: %v", ErrUnknownMethod, opts.Method)
	}
}

// scanPoints probes the point index with searchReg and refines every
// candidate inside the scan: by the closed form (Lemma 3) when
// mcSamples is zero, otherwise by sampling the issuer mcSamples times
// (the §3.3 basic method, and the enhanced method's §6.2 regime for
// non-uniform pdfs).
//
// Each sampled candidate draws from the stream keyed by (seed, object
// id), so adaptive early termination on one candidate cannot shift
// the samples any other candidate sees, and the full-budget and
// adaptive runs of one stream agree on every threshold decision (the
// certainty bound is exact).
func (st *engineState) scanPoints(ctx context.Context, q Query, opts EvalOptions, seed int64, searchReg geom.Rect, mcSamples int) (Result, error) {
	start := time.Now()
	var res Result
	if searchReg.Empty() {
		res.Cost.Duration = time.Since(start)
		return res, nil
	}

	stopQP := stopThreshold(q, opts)
	// The points path interleaves filter and refinement inside one
	// index scan, so it records a single "scan" span rather than the
	// filter/refine/merge decomposition of the uncertain and NN paths.
	spS := obs.TraceFrom(ctx).StartSpan("scan")
	na, err := st.pointIdx.SearchCounted(searchReg, nil, func(en rtree.Entry) bool {
		if canceled(ctx) != nil {
			return false
		}
		// SamplesUsed only grows, so the post-search budget check
		// re-detects this early stop.
		if opts.MaxSamples > 0 && res.Cost.SamplesUsed > opts.MaxSamples {
			return false
		}
		res.Cost.Candidates++
		p, ok := st.points.Get(uncertain.ID(en.Ref))
		if !ok {
			return true // index/table torn only by construction bugs
		}
		res.Cost.Refined++
		var prob float64
		if mcSamples > 0 {
			var n int
			var early bool
			prob, n, early = mcbound.Estimate(mcSamples, opts.Object.MCBlock, stopQP, opts.Object.MCDelta,
				pointHit(q.Issuer.PDF, p.Loc, q.W, q.H, mcbound.Stream(seed, uint64(p.ID))))
			res.Cost.SamplesUsed += int64(n)
			if early {
				res.Cost.EarlyStopped++
			}
		} else {
			prob = PointQualification(q.Issuer.PDF, p.Loc, q.W, q.H)
		}
		if accept(prob, q.Threshold) {
			res.Matches = append(res.Matches, Match{ID: p.ID, P: prob})
		} else {
			res.Cost.BelowThreshold++
		}
		return true
	})
	if err != nil {
		return Result{}, err
	}
	if err := canceled(ctx); err != nil {
		return Result{}, err
	}
	if opts.MaxSamples > 0 && res.Cost.SamplesUsed > opts.MaxSamples {
		return Result{}, ErrSampleBudget
	}
	res.Cost.NodeAccesses = na
	spS.AddNodes(na)
	spS.AddSamples(res.Cost.SamplesUsed)
	spS.SetItems(res.Cost.Candidates)
	spS.End()
	sortMatches(res.Matches)
	res.Cost.Duration = time.Since(start)
	return res, nil
}

// evaluateUncertain validates, applies defaults and deadline, and
// dispatches an uncertain-database evaluation against this state.
func (st *engineState) evaluateUncertain(ctx context.Context, q Query, opts EvalOptions, workers int, seed int64) (Result, error) {
	if err := q.Validate(); err != nil {
		return Result{}, err
	}
	opts = opts.withDefaults()
	ctx, cancel := opts.evalContext(ctx)
	defer cancel()
	switch opts.Method {
	case MethodEnhanced:
		return st.evaluateUncertainEnhanced(ctx, q, opts, workers, seed)
	case MethodBasic:
		return st.evaluateUncertainBasic(ctx, q, opts, seed)
	default:
		return Result{}, fmt.Errorf("%w: %v", ErrUnknownMethod, opts.Method)
	}
}

// evaluateUncertainEnhanced is the single enhanced evaluation path,
// serial (workers <= 1) or fanned out: index probe and object-level
// pruning run once, collecting survivors; refinement — where nearly all
// CPU time goes — runs over the prepared query plan, optionally split
// across a worker pool (see refineSurvivors). ctx must already carry
// any opts.Timeout bound.
func (st *engineState) evaluateUncertainEnhanced(ctx context.Context, q Query, opts EvalOptions, workers int, seed int64) (Result, error) {
	start := time.Now()
	var res Result
	tr := obs.TraceFrom(ctx)

	plan := newQueryPlan(q, opts, true)
	if plan.searchReg.Empty() {
		res.Cost.Duration = time.Since(start)
		return res, nil
	}

	// The filter span covers the index probe and the object-level
	// pruning strategies that run inside its visitor — the paper's
	// filter step, whose output is the survivor set refinement pays
	// for.
	spF := tr.StartSpan("filter")
	var survivors []*uncertain.Object
	visit := func(id uncertain.ID) bool {
		if canceled(ctx) != nil {
			return false
		}
		res.Cost.Candidates++
		obj, ok := st.objects.Get(id)
		if !ok {
			return true
		}
		switch PruneUncertain(q, obj, plan.expanded, plan.searchReg, opts.Strategies) {
		case PrunedEmptyOverlap:
			// Zero probability; simply not a match.
		case PrunedStrategy1:
			res.Cost.PrunedStrategy1++
		case PrunedStrategy2:
			res.Cost.PrunedStrategy2++
		case PrunedStrategy3:
			res.Cost.PrunedStrategy3++
		default:
			survivors = append(survivors, obj)
		}
		return true
	}

	var na int64
	var err error
	if q.Threshold > 0 && !opts.DisableIndexPruning {
		na, err = st.uncIdx.ThresholdSearchCounted(plan.searchReg, plan.expanded, q.Threshold, visit)
	} else {
		na, err = st.uncIdx.RangeSearchCounted(plan.searchReg, visit)
	}
	if err != nil {
		return Result{}, err
	}
	if err := canceled(ctx); err != nil {
		return Result{}, err
	}
	res.Cost.NodeAccesses = na
	res.Cost.Refined = len(survivors)
	spF.AddNodes(na)
	spF.SetItems(len(survivors))
	if spF.Active() {
		spF.SetNote(fmt.Sprintf("candidates=%d pruned=%d", res.Cost.Candidates,
			res.Cost.PrunedStrategy1+res.Cost.PrunedStrategy2+res.Cost.PrunedStrategy3))
	}
	spF.End()

	spR := tr.StartSpan("refine")
	probs, rst, err := refineSurvivors(ctx, plan, survivors, opts, workers, seed)
	if err != nil {
		return Result{}, err
	}
	res.Cost.SamplesUsed = rst.samples
	res.Cost.EarlyStopped = rst.earlyStopped
	spR.AddSamples(rst.samples)
	if spR.Active() {
		spR.SetNote(fmt.Sprintf("early_stopped=%d", rst.earlyStopped))
	}
	spR.End()

	spM := tr.StartSpan("merge")
	for i, obj := range survivors {
		if accept(probs[i], q.Threshold) {
			res.Matches = append(res.Matches, Match{ID: obj.ID, P: probs[i]})
		} else {
			res.Cost.BelowThreshold++
		}
	}
	sortMatches(res.Matches)
	spM.SetItems(len(res.Matches))
	spM.End()
	res.Cost.Duration = time.Since(start)
	return res, nil
}

func (st *engineState) evaluateUncertainBasic(ctx context.Context, q Query, opts EvalOptions, seed int64) (Result, error) {
	start := time.Now()
	var res Result

	// The basic issuer-sampling loop (Equation 4) early-terminates
	// against a real threshold like every other refinement path, and
	// draws each candidate's issuer positions from the stream keyed by
	// (seed, object id).
	stopQP := stopThreshold(q, opts)
	expanded := q.Expanded()
	na, err := st.uncIdx.RangeSearchCounted(expanded, func(id uncertain.ID) bool {
		if canceled(ctx) != nil {
			return false
		}
		if opts.MaxSamples > 0 && res.Cost.SamplesUsed > opts.MaxSamples {
			return false
		}
		res.Cost.Candidates++
		obj, ok := st.objects.Get(id)
		if !ok {
			return true
		}
		res.Cost.Refined++
		prob, n, early := mcbound.Estimate(opts.BasicSamples, opts.Object.MCBlock, stopQP, opts.Object.MCDelta,
			objectMass(q.Issuer.PDF, obj.PDF, q.W, q.H, mcbound.Stream(seed, uint64(id))))
		res.Cost.SamplesUsed += int64(n)
		if early {
			res.Cost.EarlyStopped++
		}
		if accept(prob, q.Threshold) {
			res.Matches = append(res.Matches, Match{ID: id, P: prob})
		} else {
			res.Cost.BelowThreshold++
		}
		return true
	})
	if err != nil {
		return Result{}, err
	}
	if err := canceled(ctx); err != nil {
		return Result{}, err
	}
	if opts.MaxSamples > 0 && res.Cost.SamplesUsed > opts.MaxSamples {
		return Result{}, ErrSampleBudget
	}
	res.Cost.NodeAccesses = na
	sortMatches(res.Matches)
	res.Cost.Duration = time.Since(start)
	return res, nil
}

// stopThreshold is the threshold Monte-Carlo refinement may stop
// early against: the query's own, unless opts.Object.Adaptive forbids
// early termination. Zero (no threshold, or AdaptiveOff) draws the
// full budget (see mcbound.Estimate).
func stopThreshold(q Query, opts EvalOptions) float64 {
	if opts.Object.Adaptive != AdaptiveAuto {
		return 0
	}
	return q.Threshold
}

// accept applies the result predicate: non-zero probability for
// unconstrained queries (Definitions 3–4), >= threshold for
// constrained ones (Definitions 5–6).
func accept(p, threshold float64) bool {
	if threshold > 0 {
		return p >= threshold
	}
	return p > 0
}

// SortMatches orders matches by descending probability, then id — the
// engine's canonical result order, shared by every serving layer so
// that deterministic comparisons across them stay meaningful.
// slices.SortFunc with a package-level comparator avoids the per-call
// closure and interface allocations of sort.Slice in the hot result
// path.
func SortMatches(ms []Match) {
	slices.SortFunc(ms, cmpMatch)
}

func sortMatches(ms []Match) { SortMatches(ms) }

func cmpMatch(a, b Match) int {
	switch {
	case a.P > b.P:
		return -1
	case a.P < b.P:
		return 1
	case a.ID < b.ID:
		return -1
	case a.ID > b.ID:
		return 1
	default:
		return 0
	}
}
