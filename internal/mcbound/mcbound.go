// Package mcbound holds the Monte-Carlo machinery shared by every
// sampling refiner in this repository: the keyed sample streams, the
// adaptive estimator loop of the range-query refiners (internal/core),
// and the early-termination bounds that loop and the shared-stream NN
// tally kernel (internal/nn) both stop on. Keeping them here makes an
// early stop mean the same proof everywhere, and a seed select the same
// streams everywhere, without forcing internal/nn to import
// internal/core (core already imports nn).
package mcbound

import (
	"math"
	"math/rand"
)

// golden is the SplitMix64 increment (2^64 divided by the golden ratio).
const golden = 0x9E3779B97F4A7C15

// Mix64 is the SplitMix64 finalizer: a bijective avalanche mix whose
// outputs for consecutive inputs are statistically independent. It
// derives child seeds from a parent seed plus an index, and it is the
// output function of the streams Stream returns.
func Mix64(x uint64) uint64 {
	x += golden
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Stream returns the sample stream keyed by (seed, key): a SplitMix64
// generator started at Mix64(seed + Mix64(key)). The engine keys range
// refinement by (request seed, candidate id) and NN refinement by
// (request seed, sample block), so a stream depends on nothing but the
// request seed and what it samples for — not on worker count,
// scheduling, or which other candidates exist. Two keys of one seed
// never share a start state (Mix64 is a bijection).
func Stream(seed int64, key uint64) *rand.Rand {
	return rand.New(&splitmix{state: Mix64(uint64(seed) + Mix64(key))})
}

// splitmix is the SplitMix64 generator as a rand.Source64: eight bytes
// of state, against the several kilobytes math/rand's default source
// seeds per stream.
type splitmix struct{ state uint64 }

func (s *splitmix) Uint64() uint64 {
	x := s.state
	s.state += golden
	return Mix64(x)
}

func (s *splitmix) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *splitmix) Seed(seed int64) { s.state = uint64(seed) }

// Estimate is the adaptive Monte-Carlo estimator every sampling
// refiner runs: it averages up to total values of draw (each in
// [0, 1]) in blocks of block, and after each block but the last asks
// Decided whether the running sums already prove which side of qp the
// mean falls on. It returns the estimate, the values actually drawn,
// and whether a bound stopped the loop before the full budget. For
// qp <= 0 there is no decision to prove, and it draws the full budget.
// The estimate is clamped to [0, 1].
func Estimate(total, block int, qp, delta float64, draw func() float64) (p float64, n int, early bool) {
	if total <= 0 {
		return 0, 0, false
	}
	if qp <= 0 || block <= 0 {
		block = total
	}
	var sum, sumSq float64
	for n < total {
		b := min(block, total-n)
		for j := 0; j < b; j++ {
			v := draw()
			sum += v
			sumSq += v * v
		}
		n += b
		if n >= total {
			break
		}
		if p, done := Decided(sum, sumSq, n, total, qp, delta); done {
			return p, n, true
		}
	}
	return clampProb(sum / float64(total)), total, false
}

// Decided applies the early-termination bounds after n of total
// samples summing to sum (squares to sumSq; each sample lies in
// [0, 1]):
//
//   - certainty: the full-budget mean lies in [sum/total,
//     (sum+total−n)/total] no matter what the remaining draws yield;
//     if that interval excludes qp the full-budget decision is already
//     fixed.
//   - Hoeffding: |mean − E| <= sqrt(ln(2/δ)/(2n)) with probability
//     >= 1−δ for i.i.d. samples in [0, 1].
//   - empirical Bernstein (Maurer–Pontil): |mean − E| <=
//     sqrt(2·Vn·ln(2/δ)/n) + 7·ln(2/δ)/(3(n−1)) with Vn the sample
//     variance — far tighter than Hoeffding for the low-variance
//     kernels of clear-cut candidates (probability near 0 or 1),
//     which is exactly where early termination pays.
//
// If the tighter confidence interval around the running mean excludes
// qp, the candidate's true probability is on the decided side with
// confidence 1−δ. On a decision it returns the running mean clamped to
// [0, 1], which is guaranteed to be on the decided side of qp (so the
// caller's accept test agrees with the proof).
func Decided(sum, sumSq float64, n, total int, qp, delta float64) (float64, bool) {
	mean := sum / float64(n)
	if sum/float64(total) >= qp {
		return clampProb(mean), true
	}
	if (sum+float64(total-n))/float64(total) < qp {
		return clampProb(mean), true
	}
	lg := math.Log(2 / delta)
	eps := math.Sqrt(lg / (2 * float64(n)))
	if variance := (sumSq - float64(n)*mean*mean) / float64(n-1); variance > 0 {
		if eb := math.Sqrt(2*variance*lg/float64(n)) + 7*lg/(3*float64(n-1)); eb < eps {
			eps = eb
		}
	} else {
		// Zero sample variance: the Bernstein radius is purely the
		// bias term.
		if eb := 7 * lg / (3 * float64(n-1)); eb < eps {
			eps = eb
		}
	}
	if mean-eps >= qp || mean+eps < qp {
		return clampProb(mean), true
	}
	return 0, false
}

func clampProb(p float64) float64 {
	switch {
	case p < 0:
		return 0
	case p > 1:
		return 1
	default:
		return p
	}
}
