package core

// This file preserves the PR 5 legacy (pre-Request) evaluation API —
// removed from the production surface in PR 6 — as test-only shims
// over Evaluate/EvaluateAll. The equivalence tests in this package
// keep exercising the historical entry points (including the
// bit-exact batch seed derivation) through them; nothing outside the
// test binary can link against these.

import (
	"context"
	"fmt"
)

// requestFor adapts a legacy (Query, EvalOptions) pair to a Request —
// the conversion every deprecated Evaluate* shim routes through.
func requestFor(kind Kind, q Query, opts EvalOptions) Request {
	return Request{Kind: kind, Issuer: q.Issuer, W: q.W, H: q.H, Threshold: q.Threshold, Options: opts}
}

// EvaluatePoints answers IPQ (Threshold == 0) and C-IPQ (Threshold > 0)
// queries over the point-object database.
func (e *Engine) EvaluatePoints(q Query, opts EvalOptions) (Result, error) {
	resp, err := e.Evaluate(context.Background(), requestFor(KindPoints, q, opts))
	return resp.Result, err
}

// EvaluatePointsContext is EvaluatePoints bounded by ctx.
func (e *Engine) EvaluatePointsContext(ctx context.Context, q Query, opts EvalOptions) (Result, error) {
	resp, err := e.Evaluate(ctx, requestFor(KindPoints, q, opts))
	return resp.Result, err
}

// EvaluateUncertain answers IUQ (Threshold == 0) and C-IUQ
// (Threshold > 0) queries over the uncertain-object database.
func (e *Engine) EvaluateUncertain(q Query, opts EvalOptions) (Result, error) {
	resp, err := e.Evaluate(context.Background(), requestFor(KindUncertain, q, opts))
	return resp.Result, err
}

// EvaluateUncertainContext is EvaluateUncertain bounded by ctx.
func (e *Engine) EvaluateUncertainContext(ctx context.Context, q Query, opts EvalOptions) (Result, error) {
	resp, err := e.Evaluate(ctx, requestFor(KindUncertain, q, opts))
	return resp.Result, err
}

// EvaluatePoints answers IPQ / C-IPQ queries against the snapshot.
func (s *Snapshot) EvaluatePoints(q Query, opts EvalOptions) (Result, error) {
	resp, err := s.Evaluate(context.Background(), requestFor(KindPoints, q, opts))
	return resp.Result, err
}

// EvaluatePointsContext is EvaluatePoints bounded by ctx.
func (s *Snapshot) EvaluatePointsContext(ctx context.Context, q Query, opts EvalOptions) (Result, error) {
	resp, err := s.Evaluate(ctx, requestFor(KindPoints, q, opts))
	return resp.Result, err
}

// EvaluateUncertain answers IUQ / C-IUQ queries against the snapshot.
func (s *Snapshot) EvaluateUncertain(q Query, opts EvalOptions) (Result, error) {
	resp, err := s.Evaluate(context.Background(), requestFor(KindUncertain, q, opts))
	return resp.Result, err
}

// EvaluateUncertainContext is EvaluateUncertain bounded by ctx.
func (s *Snapshot) EvaluateUncertainContext(ctx context.Context, q Query, opts EvalOptions) (Result, error) {
	resp, err := s.Evaluate(ctx, requestFor(KindUncertain, q, opts))
	return resp.Result, err
}

// EvaluateBatch evaluates many queries against the snapshot, workers
// at a time, returning results in query order.
func (s *Snapshot) EvaluateBatch(queries []BatchQuery, opts EvalOptions, workers int) []BatchResult {
	return collectBatch(s.EvaluateAll, queries, opts, workers)
}

// EvaluateBatchStream is the streaming batch evaluator against the
// snapshot.
func (s *Snapshot) EvaluateBatchStream(ctx context.Context, queries []BatchQuery, opts EvalOptions, workers int, fn StreamHandler) error {
	return s.EvaluateAll(ctx, batchRequests(queries, opts), AllOptions{Workers: workers}, streamAdapter(fn))
}

// BatchResult pairs a query index with its result or error.
type BatchResult struct {
	Result Result
	Err    error
}

// Target selects which database a batch query runs against.
type Target int

const (
	// TargetUncertain evaluates over the uncertain-object database
	// (IUQ / C-IUQ).
	TargetUncertain Target = iota
	// TargetPoints evaluates over the point-object database
	// (IPQ / C-IPQ).
	TargetPoints
)

// String implements fmt.Stringer.
func (t Target) String() string {
	switch t {
	case TargetUncertain:
		return "uncertain"
	case TargetPoints:
		return "points"
	default:
		return fmt.Sprintf("Target(%d)", int(t))
	}
}

// BatchQuery is one element of an EvaluateBatch workload. The zero
// Target evaluates over the uncertain-object database.
type BatchQuery struct {
	Query  Query
	Target Target
}

// EvaluateBatch evaluates many queries concurrently, workers at a
// time, and returns results in query order.
func (e *Engine) EvaluateBatch(queries []BatchQuery, opts EvalOptions, workers int) []BatchResult {
	return collectBatch(e.EvaluateAll, queries, opts, workers)
}

// collectBatch adapts an EvaluateAll-shaped evaluator to the legacy
// collected-slice form, for the deprecated EvaluateBatch shims. A
// fan-out-level failure (a closed snapshot) is reported in every slot,
// as the legacy methods did; it can only occur before any delivery.
func collectBatch(evalAll func(context.Context, []Request, AllOptions, AllHandler) error, queries []BatchQuery, opts EvalOptions, workers int) []BatchResult {
	out := make([]BatchResult, len(queries))
	err := evalAll(context.Background(), batchRequests(queries, opts), AllOptions{Workers: workers},
		func(i int, resp Response, err error) { out[i] = BatchResult{Result: resp.Result, Err: err} })
	if err != nil {
		for i := range out {
			out[i] = BatchResult{Err: err}
		}
	}
	return out
}

// StreamHandler receives one finished batch query: its index in the
// input slice and its result or error. Calls are serialized by the
// engine but arrive in completion order, not input order.
type StreamHandler func(i int, br BatchResult)

// EvaluateBatchStream is the streaming form of EvaluateBatch: results
// are delivered to fn as each query finishes.
func (e *Engine) EvaluateBatchStream(ctx context.Context, queries []BatchQuery, opts EvalOptions, workers int, fn StreamHandler) error {
	return e.EvaluateAll(ctx, batchRequests(queries, opts), AllOptions{Workers: workers}, streamAdapter(fn))
}

// streamAdapter adapts a legacy StreamHandler to an AllHandler
// (nil-preserving, so warm-up callers keep the discard fast path).
func streamAdapter(fn StreamHandler) AllHandler {
	if fn == nil {
		return nil
	}
	return func(i int, resp Response, err error) { fn(i, BatchResult{Result: resp.Result, Err: err}) }
}

// EvaluateUncertainBatch evaluates many queries over the
// uncertain-object database, workers at a time.
func (e *Engine) EvaluateUncertainBatch(queries []Query, opts EvalOptions, workers int) []BatchResult {
	return e.EvaluateBatch(uncertainBatch(queries), opts, workers)
}

// uncertainBatch wraps bare queries as uncertain-target batch entries
// (for the deprecated EvaluateUncertainBatch shim).
func uncertainBatch(queries []Query) []BatchQuery {
	bqs := make([]BatchQuery, len(queries))
	for i, q := range queries {
		bqs[i] = BatchQuery{Query: q}
	}
	return bqs
}

// kindForTarget maps a legacy batch Target to the request Kind.
func kindForTarget(t Target) Kind {
	if t == TargetPoints {
		return KindPoints
	}
	return KindUncertain
}

// batchRequests converts a legacy BatchQuery workload to requests,
// seeding query i exactly as EvaluateAll seeds an unseeded request i
// under a zero AllOptions.Seed. It exists only for the deprecated
// EvaluateBatch / EvaluateBatchStream / EvaluateUncertainBatch shims.
func batchRequests(queries []BatchQuery, opts EvalOptions) []Request {
	reqs := make([]Request, len(queries))
	for i, bq := range queries {
		reqs[i] = Request{
			Kind:      kindForTarget(bq.Target),
			Issuer:    bq.Query.Issuer,
			W:         bq.Query.W,
			H:         bq.Query.H,
			Threshold: bq.Query.Threshold,
			Options:   opts,
			Seed:      deriveSeed(0, i),
		}
	}
	return reqs
}

// EvaluateUncertainParallel is EvaluateUncertain with refinement
// fanned out over workers goroutines. Parallel and serial evaluation
// share one implementation; per-candidate sampling seeds (see
// refineSurvivors) make the results bit-identical at any worker
// count, so this is exactly a Request with Workers set.
func (e *Engine) EvaluateUncertainParallel(q Query, opts EvalOptions, workers int) (Result, error) {
	resp, err := e.Evaluate(context.Background(),
		Request{Kind: KindUncertain, Issuer: q.Issuer, W: q.W, H: q.H, Threshold: q.Threshold, Options: opts, Workers: workers})
	return resp.Result, err
}
