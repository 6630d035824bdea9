package core

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/mcbound"
	"repro/internal/uncertain"
)

// deriveSeed maps a parent seed and a child index to a child seed.
// Two children of the same parent never receive the same seed, and
// children of parents that differ by a small offset do not collide
// either.
func deriveSeed(parent int64, child int) int64 {
	return int64(mcbound.Mix64(uint64(parent) + mcbound.Mix64(uint64(child))))
}

// refineStats aggregates what refinement spent: total Monte-Carlo
// samples drawn and how many candidates a confidence bound settled
// before their full budget.
type refineStats struct {
	samples      int64
	earlyStopped int
}

// refineSurvivors computes qualification probabilities for the
// survivors of pruning, in input order, through the prepared query
// plan, and reports the sampling cost. workers <= 1 refines serially
// on the caller's goroutine; workers > 1 splits the survivors across
// a worker pool. Candidates refined by Monte-Carlo each draw from the
// stream keyed by (seed, object id) — serial and parallel alike (see
// mcbound.Stream).
//
// Reproducibility contract: for a fixed engine, query, and seed,
// results are bit-identical run to run and across every worker
// count, serial included — seeding is per candidate object, so
// neither the scheduler, the worker count, nor the refinement order
// can change which sample stream refines which object. Keying the
// stream by object id (not survivor index) also means pruning
// configuration cannot shift a surviving object's stream.
//
// When the query carries a threshold and opts.Object.Adaptive allows
// it, Monte-Carlo refinement early-terminates per candidate (see
// ObjectEvalConfig.Adaptive); the qualifying decision is unchanged.
//
// ctx is checked between candidates; on cancellation the partial
// probability slice and an error are returned. opts.MaxSamples, when
// set, bounds the query's total samples: refinement stops drawing
// once the running total exceeds it and returns ErrSampleBudget.
// Whether the budget trips is deterministic — per-candidate streams
// make the full total independent of refinement order — even though
// the exact stopping candidate under workers > 1 is not.
func refineSurvivors(ctx context.Context, plan queryPlan, survivors []*uncertain.Object, opts EvalOptions, workers int, seed int64) ([]float64, refineStats, error) {
	var st refineStats
	if len(survivors) == 0 {
		return nil, st, nil
	}
	if workers > len(survivors) {
		workers = len(survivors)
	}
	probs := make([]float64, len(survivors))

	stopQP := stopThreshold(plan.q, opts)

	budget := opts.MaxSamples
	overBudget := func(total int64) bool { return budget > 0 && total > budget }

	refineOne := func(i int, cfg ObjectEvalConfig, sc *evalScratch) (int, bool) {
		obj := survivors[i]
		p, n, early := plan.qualifier.qualifyThreshold(obj.PDF, stopQP, cfg, sc, seed, uint64(obj.ID))
		probs[i] = p
		return n, early
	}

	if workers <= 1 {
		sc := acquireScratch()
		defer releaseScratch(sc)
		for i := range survivors {
			if err := canceled(ctx); err != nil {
				return probs, st, err
			}
			if overBudget(st.samples) {
				return probs, st, ErrSampleBudget
			}
			n, early := refineOne(i, opts.Object, sc)
			st.samples += int64(n)
			if early {
				st.earlyStopped++
			}
		}
		if overBudget(st.samples) {
			return probs, st, ErrSampleBudget
		}
		return probs, st, nil
	}

	var (
		wg           sync.WaitGroup
		next         atomic.Int64
		samples      atomic.Int64
		earlyStopped atomic.Int64
	)
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := acquireScratch()
			defer releaseScratch(sc)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(survivors) || canceled(ctx) != nil {
					break
				}
				if overBudget(samples.Load()) {
					break
				}
				n, early := refineOne(i, opts.Object, sc)
				samples.Add(int64(n))
				if early {
					earlyStopped.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	st.samples = samples.Load()
	st.earlyStopped = int(earlyStopped.Load())
	if err := canceled(ctx); err != nil {
		return probs, st, err
	}
	if overBudget(st.samples) {
		return probs, st, ErrSampleBudget
	}
	return probs, st, nil
}

// canceled returns the context's error if it is done, nil otherwise.
// The fast path (context.Background, undecided contexts) is a single
// channel poll, cheap enough for per-candidate checks.
func canceled(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}
