package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one operation of a timed phase.
type sample struct {
	// lat is completion minus due time (open loop) or minus send
	// time (closed loop); late is send minus due time.
	lat, late time.Duration
	err       error
}

// opFunc performs operation i and reports its failure, if any.
type opFunc func(ctx context.Context, i int) error

// openLoop issues operations at a fixed rate for dur with at most
// inflight outstanding. Operation i is due at start + i/rate and is
// timed from its due time, so a stall shows in the latency of every
// operation queued behind it, and in late. Operations still unsent
// drain gracePeriod after the phase ends are dropped.
func openLoop(ctx context.Context, rate float64, dur time.Duration, inflight int, first int, op opFunc) []sample {
	const gracePeriod = 2 * time.Second
	n := int(math.Round(rate * dur.Seconds()))
	interval := time.Duration(float64(time.Second) / rate)
	out := make([]sample, n)
	sent := make([]bool, n)
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for range inflight {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				} else if -d > gracePeriod && time.Since(start) > dur {
					return
				}
				sendAt := time.Now()
				err := op(ctx, first+i)
				out[i] = sample{lat: time.Since(due), late: sendAt.Sub(due), err: err}
				sent[i] = true
			}
		}()
	}
	wg.Wait()
	var done []sample
	for i, ok := range sent {
		if ok {
			done = append(done, out[i])
		}
	}
	return done
}

// closedLoop runs clients back-to-back operations for dur and returns
// the samples with the phase's wall time.
func closedLoop(ctx context.Context, clients int, dur time.Duration, first int, op opFunc) ([]sample, time.Duration) {
	var next atomic.Int64
	var mu sync.Mutex
	var out []sample
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			for time.Now().Before(deadline) && ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				t0 := time.Now()
				err := op(ctx, first+i)
				mine = append(mine, sample{lat: time.Since(t0), err: err})
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// tailLadder are the percentiles a tail may be reported at.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99}

// latencyStats summarises successful samples' latencies.
type latencyStats struct {
	n        int
	p50      float64 // ms
	p90, p99 float64
	tail     float64 // ms
	tailPct  float64
	beyond   int // samples above the tail percentile's rank
	lateP99  float64
	failures int
}

// rank is the 1-based nearest rank of percentile p among n values
// (the epsilon absorbs rounding in p/100*n).
func rank(p float64, n int) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// percentile is the nearest-rank percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[min(max(rank(p, len(sorted)), 1), len(sorted))-1]
}

// tailPercentile picks the highest ladder percentile that leaves at
// least 10 samples beyond it, and reports how many lie beyond.
func tailPercentile(n int) (pct float64, beyond int) {
	pct = tailLadder[0]
	for _, p := range tailLadder {
		if n-rank(p, n) < 10 {
			break
		}
		pct = p
	}
	return pct, n - rank(pct, n)
}

func summarize(samples []sample) latencyStats {
	var lat, late []float64
	st := latencyStats{}
	for _, s := range samples {
		if s.err != nil {
			st.failures++
			continue
		}
		lat = append(lat, ms(s.lat))
		late = append(late, ms(s.late))
	}
	slices.Sort(lat)
	slices.Sort(late)
	st.n = len(lat)
	st.p50 = percentile(lat, 50)
	st.p90, st.p99 = percentile(lat, 90), percentile(lat, 99)
	st.tailPct, st.beyond = tailPercentile(len(lat))
	st.tail = percentile(lat, st.tailPct)
	st.lateP99 = percentile(late, 99)
	return st
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// client posts pre-encoded bodies to the router over at most
// conns connections, recording a client span while tracing.
type client struct {
	http *http.Client
	base string
	rec  *recorder
}

func newClient(base string, conns int, rec *recorder) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{http: &http.Client{Transport: tr}, base: base, rec: rec}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// post sends body to path and returns the response body and, while
// tracing, the request's client span; a non-2xx status is an error.
func (c *client) post(ctx context.Context, path string, body []byte) ([]byte, *span, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	var s *span
	if c.rec != nil && c.rec.on.Load() {
		s = c.rec.begin(spanRef{}, "client", path)
		req.Header.Set(spanHeader, s.ref().header())
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if s != nil {
		c.rec.finish(s)
	}
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, nil, fmt.Errorf("POST %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, s, nil
}
