// Package nn implements the paper's first future-work item (§7):
// imprecise location-dependent nearest-neighbor queries. Given a query
// issuer with an uncertain location, it returns for each point object
// the probability that the object is the issuer's nearest neighbor —
// the probabilistic counterpart of the range nearest-neighbor query
// (Hu & Lee 2006, the paper's reference [11]).
//
// Evaluation has two stages, mirroring the range-query engine:
//
//  1. Candidate pruning: an object can be the nearest neighbor of
//     some position in U0 only if its minimum distance to U0 does not
//     exceed the smallest maximum distance any object has to U0
//     (the classic MinDist/MaxDist bound). Everything else has
//     qualification probability exactly zero.
//  2. Monte-Carlo refinement: sample issuer positions from f0 and
//     tally, for each sampled position, which candidate is nearest.
//     The estimate is unbiased, and only candidates are scanned per
//     sample.
//
// # Determinism contract (shared sample stream)
//
// Refinement draws ONE issuer-position stream shared by every
// candidate: sample index s belongs to block b = s/BlockSize, and
// block b's positions come from the stream keyed by (seed, b) (see
// mcbound.Stream), so the position at any index is a pure function of
// the seed, independent of candidate count, worker count, and
// scheduling. Each sampled position is resolved to its
// nearest candidate in a single pass and tallied as one integer win;
// a candidate's probability is wins/samples. Consequences:
//
//   - Total refinement work is O(candidates × samples) — one distance
//     scan per sample — not O(candidates² × samples) as with
//     per-candidate streams.
//   - Exactly one candidate wins each sample, so exhaustive estimates
//     sum to exactly 1 (up to float addition of the final divisions).
//   - Parallelism partitions the sample axis into whole blocks; each
//     worker tallies its blocks into a private integer count vector
//     and the vectors are summed afterwards. Integer tallies make the
//     merge order-exact, so results are bit-identical at every worker
//     count, serial included.
//   - Adaptive early termination (Threshold > 0) checks candidates
//     against the mcbound certainty/Hoeffding/empirical-Bernstein
//     bounds only at fixed round boundaries (RoundBlocks whole
//     blocks), never mid-block and never at worker-dependent points —
//     so the retirement schedule, and with it every tally, is also
//     bit-identical at every worker count.
//
// Retired ("decided") candidates stop accumulating wins but remain in
// the per-sample scan as distance-only blockers: an active candidate
// is tallied only for samples it would win against the FULL candidate
// set, so surviving estimates stay exactly the tallies an exhaustive
// run would produce — retirement never biases a survivor. Once every
// candidate is decided the stream stops entirely.
//
// The engine integrates this package as a first-class query kind
// (core.KindNN): candidates come from a branch-and-bound search over
// the pinned snapshot's R-tree, and Refine computes the
// probabilities. The slice-based Evaluate / EvaluateThreshold
// functions remain for callers without an engine.
package nn

import (
	"errors"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/mcbound"
	"repro/internal/pdf"
	"repro/internal/uncertain"
)

// Match pairs an object id with its probability of being the nearest
// neighbor.
type Match struct {
	ID uncertain.ID
	P  float64
}

// Result reports an evaluation.
type Result struct {
	// Matches holds every object with non-zero estimated probability,
	// ordered by descending probability then id.
	Matches []Match
	// Candidates is the number of objects surviving distance pruning.
	Candidates int
	// Samples is the shared-stream Monte-Carlo budget.
	Samples int
}

// ErrNoObjects is returned when the database is empty.
var ErrNoObjects = errors.New("nn: no objects to query")

// DefaultSamples is the shared-stream Monte-Carlo budget used when the
// caller passes 0. It is the total number of issuer positions drawn —
// not a per-candidate count — since every candidate is tallied against
// the same stream.
const DefaultSamples = 1000

// DefaultBlock is the number of consecutive sample indexes per seed
// block: block b of the stream is generated from (seed, b). Blocks
// are the unit of worker scheduling and cancellation polling.
const DefaultBlock = 128

// DefaultRoundBlocks is the number of whole blocks between adaptive
// early-termination checks (16 blocks × 128 samples = 2048 samples per
// round). Rounds are fixed sample counts — never a function of the
// worker count — so retirement decisions are scheduling-independent.
const DefaultRoundBlocks = 16

// Prune applies the MinDist/MaxDist bound: tau is the smallest
// maximum distance any object has to u0 (some object is always within
// tau of every position in u0), and any object whose minimum distance
// to u0 exceeds tau can never be the nearest neighbor. The surviving
// candidates are returned in input order.
func Prune(points []uncertain.PointObject, u0 geom.Rect) []uncertain.PointObject {
	tau := math.Inf(1)
	for _, p := range points {
		if d := u0.MaxDist(p.Loc); d < tau {
			tau = d
		}
	}
	var cands []uncertain.PointObject
	for _, p := range points {
		if u0.MinDist(p.Loc) <= tau {
			cands = append(cands, p)
		}
	}
	return cands
}

// RefineConfig tunes the shared-stream tally kernel. The zero value
// asks for an exhaustive DefaultSamples-long stream refined serially.
type RefineConfig struct {
	// Samples is the shared-stream length (<= 0 selects
	// DefaultSamples). This is the total number of issuer positions
	// drawn, independent of the candidate count.
	Samples int
	// Threshold is the query's qualification threshold qp. With
	// Adaptive set and Threshold > 0, candidates provably above or
	// below qp retire early (see RefineStats.Decided).
	Threshold float64
	// Adaptive enables early termination against Threshold.
	Adaptive bool
	// Block is the samples-per-seed-block granule (<= 0 selects
	// DefaultBlock). Positions in block b derive from (seed, b), so
	// changing Block changes the stream; it is part of the seed
	// schedule, not a tuning knob to vary per call.
	Block int
	// RoundBlocks is the number of whole blocks drawn between adaptive
	// bound checks (<= 0 selects DefaultRoundBlocks). Fixed rounds keep
	// retirement decisions independent of the worker count.
	RoundBlocks int
	// Delta is the per-check failure probability of the confidence
	// bounds (<= 0 selects 1e-6).
	Delta float64
	// Workers > 1 partitions each round's blocks across a worker pool.
	// Results are bit-identical at every worker count.
	Workers int
	// Cancel, when non-nil, is polled once per block inside the
	// refinement loop: a non-nil return stops refinement within a
	// block's worth of samples and is returned to the caller (the
	// engine passes its context check here, so deadlines and
	// disconnects cannot be outwaited by a long stream).
	Cancel func() error
}

func (c RefineConfig) withDefaults() RefineConfig {
	if c.Samples <= 0 {
		c.Samples = DefaultSamples
	}
	if c.Block <= 0 {
		c.Block = DefaultBlock
	}
	if c.RoundBlocks <= 0 {
		c.RoundBlocks = DefaultRoundBlocks
	}
	if c.Delta <= 0 {
		c.Delta = 1e-6
	}
	if c.Cancel == nil {
		c.Cancel = func() error { return nil }
	}
	return c
}

// RefineStats reports what a Refine call actually did.
type RefineStats struct {
	// Samples is the number of issuer positions drawn from the shared
	// stream — the true sampling work, since every candidate shares
	// the stream. Less than the budget when adaptive refinement
	// converged (every candidate decided) before the stream ended.
	Samples int64
	// EarlyStopped counts candidates retired by a bound before the
	// stream ended.
	EarlyStopped int
	// Converged reports that the stream stopped early because every
	// candidate was decided.
	Converged bool
	// Rounds is the number of fixed-size sample rounds the stream ran
	// (each DefaultRoundBlocks × Block draws, except a short final
	// round) — the granularity at which adaptive retirement and
	// cancellation are checked.
	Rounds int
	// Decided marks, per candidate, whether a bound retired it early.
	// Undecided candidates carry exhaustive tallies over all Samples
	// draws.
	Decided []bool
}

// Refine estimates, for each candidate, the probability that it is the
// issuer's nearest neighbor among cands, by tallying nearest-candidate
// wins over one shared issuer-position stream keyed by seed (see
// the package documentation for the determinism contract). It returns
// one probability per candidate, in input order. Ties on sampled
// distance break toward the lower slice index, deterministically.
//
// On error (cancellation, or an issuer sampling failure surfaced
// through Cancel) the partial probabilities are returned along with
// the error; the first error by stream position wins when workers race.
func Refine(cands []uncertain.PointObject, issuer pdf.PDF, seed int64, cfg RefineConfig) ([]float64, RefineStats, error) {
	cfg = cfg.withDefaults()
	n := len(cands)
	probs := make([]float64, n)
	stats := RefineStats{Decided: make([]bool, n)}
	if n == 0 {
		return probs, stats, nil
	}

	k := &kernel{
		issuer:  issuer,
		seed:    seed,
		block:   cfg.Block,
		samples: cfg.Samples,
		xs:      make([]float64, n),
		ys:      make([]float64, n),
		wins:    make([]int64, n),
		active:  make([]int, n),
	}
	for i, c := range cands {
		k.xs[i] = c.Loc.X
		k.ys[i] = c.Loc.Y
		k.active[i] = i
	}

	nBlocks := (cfg.Samples + cfg.Block - 1) / cfg.Block
	adaptive := cfg.Adaptive && cfg.Threshold > 0
	roundBlocks := nBlocks
	if adaptive {
		roundBlocks = cfg.RoundBlocks
	}

	drawn := 0
	for b0 := 0; b0 < nBlocks && len(k.active) > 0; b0 += roundBlocks {
		b1 := b0 + roundBlocks
		if b1 > nBlocks {
			b1 = nBlocks
		}
		err := k.runRound(b0, b1, cfg.Workers, cfg.Cancel)
		stats.Rounds++
		drawn = b1 * cfg.Block
		if drawn > cfg.Samples {
			drawn = cfg.Samples
		}
		stats.Samples = int64(drawn)
		if err != nil {
			// The stream was cut mid-round: the partial probabilities
			// are not a valid estimate and the caller must discard the
			// whole evaluation (the engine does — a cancelled request
			// returns the error, never the result).
			return probs, stats, err
		}
		if !adaptive || drawn >= cfg.Samples || drawn < 2 {
			continue
		}
		// Fixed-round decision pass: retire candidates a bound has
		// decided. Retirees keep their running mean as the estimate and
		// move to the blocker list so survivors' tallies stay exact.
		for ai := 0; ai < len(k.active); {
			i := k.active[ai]
			w := float64(k.wins[i])
			p, done := mcbound.Decided(w, w, drawn, cfg.Samples, cfg.Threshold, cfg.Delta)
			if !done {
				ai++
				continue
			}
			probs[i] = p
			stats.Decided[i] = true
			stats.EarlyStopped++
			k.active = append(k.active[:ai], k.active[ai+1:]...)
			k.blockers = append(k.blockers, i)
		}
		// Most-winning blockers first: the scan breaks on the first
		// blocker beating the active best, so a dominant retiree keeps
		// the expected blocker work near one comparison.
		sort.Slice(k.blockers, func(a, b int) bool {
			ba, bb := k.blockers[a], k.blockers[b]
			if k.wins[ba] != k.wins[bb] {
				return k.wins[ba] > k.wins[bb]
			}
			return ba < bb
		})
	}
	if len(k.active) == 0 {
		stats.Converged = true
	}
	for _, i := range k.active {
		probs[i] = float64(k.wins[i]) / float64(drawn)
	}
	return probs, stats, nil
}

// kernel is the shared-stream tally state for one Refine call.
// Candidate coordinates live in parallel slices so the per-sample scan
// walks flat float64 arrays.
type kernel struct {
	issuer  pdf.PDF
	seed    int64
	block   int
	samples int
	xs, ys  []float64
	// wins[i] counts samples candidate i was nearest to; only merged
	// round tallies land here (worker-private vectors during a round).
	wins []int64
	// active lists undecided candidate indexes in ascending order (the
	// tie-break order: lowest index wins equal distances, matching a
	// full scan with keep-first semantics).
	active []int
	// blockers lists retired candidate indexes, sorted by descending
	// win count. They no longer accumulate wins but still veto samples
	// they would win, keeping active tallies unbiased.
	blockers []int
}

// scanBlock draws block b's samples from (seed, b) and tallies
// nearest-candidate wins into tal (len(cands)-sized; either the merged
// wins vector in serial mode or a worker-private vector).
func (k *kernel) scanBlock(b int, tal []int64) {
	rng := mcbound.Stream(k.seed, uint64(b))
	lo := b * k.block
	hi := lo + k.block
	if hi > k.samples {
		hi = k.samples
	}
	for s := lo; s < hi; s++ {
		pos := k.issuer.Sample(rng)
		// Nearest active candidate; ascending index order plus strict <
		// keeps the first (lowest-index) on ties — identical to a full
		// scan over all candidates.
		best := -1
		bd := math.Inf(1)
		for _, i := range k.active {
			dx := pos.X - k.xs[i]
			dy := pos.Y - k.ys[i]
			if d := dx*dx + dy*dy; d < bd {
				bd = d
				best = i
			}
		}
		if best < 0 {
			continue
		}
		// A retired candidate that would win this sample (strictly
		// nearer, or equally near with a lower index) blocks the tally.
		blocked := false
		for _, j := range k.blockers {
			dx := pos.X - k.xs[j]
			dy := pos.Y - k.ys[j]
			if d := dx*dx + dy*dy; d < bd || (d == bd && j < best) {
				blocked = true
				break
			}
		}
		if !blocked {
			tal[best]++
		}
	}
}

// runRound tallies blocks [b0, b1) into k.wins. workers > 1 spreads
// the blocks over a pool with worker-private tally vectors merged
// after the barrier; integer tallies make the merge exact, so the
// result is bit-identical to the serial path. Every worker error is
// recorded and the one at the lowest block position is returned — a
// failing worker can no longer be silently swallowed behind zeroed
// tallies (errors here are cancellations, so the whole evaluation is
// discarded by the caller anyway).
func (k *kernel) runRound(b0, b1, workers int, cancel func() error) error {
	if workers > b1-b0 {
		workers = b1 - b0
	}
	if workers <= 1 {
		for b := b0; b < b1; b++ {
			if err := cancel(); err != nil {
				return err
			}
			k.scanBlock(b, k.wins)
		}
		return nil
	}

	var (
		wg       sync.WaitGroup
		next     atomic.Int64
		mu       sync.Mutex
		errBlock = -1
		firstErr error
	)
	next.Store(int64(b0))
	private := make([][]int64, workers)
	for w := 0; w < workers; w++ {
		private[w] = make([]int64, len(k.wins))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				b := int(next.Add(1)) - 1
				if b >= b1 {
					return
				}
				if err := cancel(); err != nil {
					mu.Lock()
					if errBlock < 0 || b < errBlock {
						errBlock, firstErr = b, err
					}
					mu.Unlock()
					return
				}
				k.scanBlock(b, private[w])
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	for _, tal := range private {
		for i, v := range tal {
			k.wins[i] += v
		}
	}
	return nil
}

// Evaluate computes nearest-neighbor qualification probabilities for
// the issuer pdf over the given point objects. samples <= 0 selects a
// DefaultSamples-long shared stream. The stream is keyed by seed and
// the block index (see Refine), so a fixed seed reproduces the result
// exactly.
//
// Applications holding an engine should prefer evaluating a
// core.Request of kind KindNN — it prunes candidates through the
// engine's R-tree and observes one MVCC snapshot. Evaluate is the
// engine-less path for slice-based callers.
func Evaluate(points []uncertain.PointObject, issuer pdf.PDF, samples int, seed int64) (Result, error) {
	if len(points) == 0 {
		return Result{}, ErrNoObjects
	}
	if samples <= 0 {
		samples = DefaultSamples
	}
	cands := Prune(points, issuer.Support())
	probs, _, _ := Refine(cands, issuer, seed, RefineConfig{Samples: samples})

	res := Result{Candidates: len(cands), Samples: samples}
	for i, p := range probs {
		if p > 0 {
			res.Matches = append(res.Matches, Match{ID: cands[i].ID, P: p})
		}
	}
	sortMatches(res.Matches)
	return res, nil
}

// sortMatches orders by descending probability, then ascending id.
func sortMatches(ms []Match) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].P != ms[j].P {
			return ms[i].P > ms[j].P
		}
		return ms[i].ID < ms[j].ID
	})
}

// EvaluateThreshold is Evaluate restricted to answers with probability
// at least qp — the nearest-neighbor analogue of the constrained
// queries.
//
// As with Evaluate, engine-holding applications should prefer a
// core.Request of kind KindNN with Threshold set — the engine path
// also retires decided candidates early; this slice-based form draws
// the full stream.
func EvaluateThreshold(points []uncertain.PointObject, issuer pdf.PDF, qp float64, samples int, seed int64) (Result, error) {
	res, err := Evaluate(points, issuer, samples, seed)
	if err != nil {
		return Result{}, err
	}
	kept := res.Matches[:0]
	for _, m := range res.Matches {
		if m.P >= qp {
			kept = append(kept, m)
		}
	}
	res.Matches = kept
	return res, nil
}

// Exact1D is a closed-form reference for tests: with a uniform issuer
// on a horizontal segment (degenerate-height U0) and objects on the
// same line, nearest-neighbor regions are intervals split at midpoints
// of consecutive objects, so probabilities are interval-length
// fractions. Objects must be sorted by X and distinct; the issuer
// segment is [a, b] at the same Y.
func Exact1D(xs []float64, a, b float64) []float64 {
	n := len(xs)
	out := make([]float64, n)
	if n == 0 || b <= a {
		return out
	}
	for i := range xs {
		lo := math.Inf(-1)
		hi := math.Inf(1)
		if i > 0 {
			lo = (xs[i-1] + xs[i]) / 2
		}
		if i < n-1 {
			hi = (xs[i] + xs[i+1]) / 2
		}
		out[i] = geom.IntervalOverlap(math.Max(lo, a), math.Min(hi, b), a, b) / (b - a)
	}
	return out
}
