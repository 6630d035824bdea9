package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// Layers, in nesting order. A span's depth is its layer's index.
var layers = []string{"client", "router", "rpc", "shard"}

func depthOf(layer string) int { return slices.Index(layers, layer) }

// spanHeader carries "<trace>-<span>" from a caller to the handler it
// calls, so a server-side span can name its parent.
const spanHeader = "X-Fleetbench-Span"

// span is one recorded interval at a layer boundary.
type span struct {
	trace, id, parent uint64
	layer, op         string
	start, end        time.Duration // since the recorder's epoch
	// bytes is the rpc span's request plus response body size.
	bytes int64
	// eval is what the shard span's /v1/evaluate response reports.
	eval *evalInfo
	// matches and engine are set on a client span from the router's
	// answer: its match count and, for NN, the router-side refinement
	// time in ms (cost.duration_ms).
	matches int
	engine  float64
}

func (s *span) dur() time.Duration { return s.end - s.start }

// evalInfo is the part of a shard's /v1/evaluate response the
// per-layer metrics use.
type evalInfo struct {
	durationMS float64 // cost.duration_ms
	stages     map[string]float64
	matches    int
	bytes      int
	err        error
}

// recorder keeps spans in memory. Middlewares and the transport are
// installed for the whole run and record only while on.
type recorder struct {
	epoch  time.Time
	on     atomic.Bool
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []*span
	// decoding counts captured responses still being decoded.
	decoding sync.WaitGroup
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() time.Duration { return time.Since(r.epoch) }

// begin opens a span under parent (a zero parent starts a new trace).
func (r *recorder) begin(parent spanRef, layer, op string) *span {
	id := r.nextID.Add(1)
	trace := parent.trace
	if trace == 0 {
		trace = id
	}
	return &span{trace: trace, id: id, parent: parent.id, layer: layer, op: op, start: r.now()}
}

func (r *recorder) finish(s *span) {
	s.end = r.now()
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// take returns the recorded spans and clears the recorder.
func (r *recorder) take() []*span {
	r.decoding.Wait()
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// spanRef identifies a span for propagation.
type spanRef struct{ trace, id uint64 }

func (s *span) ref() spanRef { return spanRef{s.trace, s.id} }

func (s spanRef) header() string { return fmt.Sprintf("%d-%d", s.trace, s.id) }

func parseSpanHeader(v string) spanRef {
	t, id, ok := strings.Cut(v, "-")
	if !ok {
		return spanRef{}
	}
	tv, err1 := strconv.ParseUint(t, 10, 64)
	iv, err2 := strconv.ParseUint(id, 10, 64)
	if err1 != nil || err2 != nil {
		return spanRef{}
	}
	return spanRef{tv, iv}
}

type spanKey struct{}

func withSpan(ctx context.Context, s spanRef) context.Context {
	return context.WithValue(ctx, spanKey{}, s)
}

func spanFrom(ctx context.Context) spanRef {
	s, _ := ctx.Value(spanKey{}).(spanRef)
	return s
}

// captureWriter tees a response body.
type captureWriter struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (c *captureWriter) Write(p []byte) (int, error) {
	c.buf.Write(p)
	return c.ResponseWriter.Write(p)
}

// middleware records a span around h for each request. The parent
// comes from spanHeader; the span rides the request context, which
// the router hands down to its shard clients. Shard-layer spans
// decode the /v1/evaluate response for the engine's cost and stages,
// off the request path so the response is not held up.
func (r *recorder) middleware(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.on.Load() || req.Method != http.MethodPost {
			h.ServeHTTP(w, req)
			return
		}
		s := r.begin(parseSpanHeader(req.Header.Get(spanHeader)), layer, req.URL.Path)
		var cw *captureWriter
		if layer == "shard" && req.URL.Path == "/v1/evaluate" {
			cw = &captureWriter{ResponseWriter: w}
			w = cw
		}
		h.ServeHTTP(w, req.WithContext(withSpan(req.Context(), s.ref())))
		r.finish(s)
		if cw != nil {
			r.decoding.Add(1)
			go func() {
				defer r.decoding.Done()
				s.eval = decodeEval(cw.buf.Bytes())
			}()
		}
	})
}

func decodeEval(body []byte) *evalInfo {
	var resp serve.EvaluateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return &evalInfo{err: err}
	}
	ev := &evalInfo{durationMS: resp.Cost.DurationMS, stages: map[string]float64{},
		matches: len(resp.Matches), bytes: len(body)}
	for _, sp := range resp.Trace {
		ev.stages[sp.Stage] += sp.DurationMS
	}
	return ev
}

// rpcTransport is the router's shard transport under tracing: one rpc
// span per round trip, parented by the span in the request context,
// ending when the caller closes the response body (so it includes the
// client-side decode).
type rpcTransport struct {
	rec   *recorder
	inner http.RoundTripper
}

func (t *rpcTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.rec.on.Load() {
		return t.inner.RoundTrip(req)
	}
	s := t.rec.begin(spanFrom(req.Context()), "rpc", req.URL.Path)
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, s.ref().header())
	s.bytes = max(req.ContentLength, 0)
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		t.rec.finish(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, rec: t.rec, s: s}
	return resp, nil
}

// spanBody ends its rpc span on the first Close, counting body bytes.
type spanBody struct {
	io.ReadCloser
	rec  *recorder
	s    *span
	once sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.s.bytes += int64(n)
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.rec.finish(b.s) })
	return err
}

// traceTree is one request's spans, children clipped to their parent.
type traceTree struct {
	root     *span
	children map[uint64][]*span
	all      []*span
}

// buildTrees groups spans into per-request trees rooted at client
// spans; spans whose trace has no client root are dropped.
func buildTrees(spans []*span) []*traceTree {
	byTrace := map[uint64]*traceTree{}
	var order []uint64
	for _, s := range spans {
		t := byTrace[s.trace]
		if t == nil {
			t = &traceTree{children: map[uint64][]*span{}}
			byTrace[s.trace] = t
			order = append(order, s.trace)
		}
		t.all = append(t.all, s)
		if s.parent == 0 && s.layer == "client" {
			t.root = s
		} else {
			t.children[s.parent] = append(t.children[s.parent], s)
		}
	}
	var out []*traceTree
	for _, id := range order {
		if t := byTrace[id]; t.root != nil {
			out = append(out, t)
		}
	}
	return out
}

// interval is a half-open time range.
type interval struct{ lo, hi time.Duration }

// unionLen is the measure of the union of ivs clipped to within.
func unionLen(ivs []interval, within interval) time.Duration {
	var cl []interval
	for _, iv := range ivs {
		lo, hi := max(iv.lo, within.lo), min(iv.hi, within.hi)
		if hi > lo {
			cl = append(cl, interval{lo, hi})
		}
	}
	slices.SortFunc(cl, func(a, b interval) int { return int(a.lo - b.lo) })
	var total time.Duration
	var cur interval
	for i, iv := range cl {
		switch {
		case i == 0:
			cur = iv
		case iv.lo <= cur.hi:
			cur.hi = max(cur.hi, iv.hi)
		default:
			total += cur.hi - cur.lo
			cur = iv
		}
	}
	if len(cl) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// selfTime is a span's duration minus the union of its children's
// spans (clipped to it).
func (t *traceTree) selfTime(s *span) time.Duration {
	var ivs []interval
	for _, c := range t.children[s.id] {
		ivs = append(ivs, interval{c.start, c.end})
	}
	return s.dur() - unionLen(ivs, interval{s.start, s.end})
}

// attribute splits the root span's duration across spans: every
// instant goes to the deepest spans active at it, shared equally when
// parallel spans tie. Children are clipped to their parents first, so
// the shares of one request sum exactly to its client span.
func (t *traceTree) attribute() map[*span]time.Duration {
	clip := map[*span]interval{t.root: {t.root.start, t.root.end}}
	var walk func(p *span)
	walk = func(p *span) {
		for _, c := range t.children[p.id] {
			pi := clip[p]
			iv := interval{max(c.start, pi.lo), min(c.end, pi.hi)}
			if iv.hi < iv.lo {
				iv.hi = iv.lo
			}
			clip[c] = iv
			walk(c)
		}
	}
	walk(t.root)

	var cuts []time.Duration
	for _, iv := range clip {
		cuts = append(cuts, iv.lo, iv.hi)
	}
	slices.Sort(cuts)
	cuts = slices.Compact(cuts)
	share := map[*span]time.Duration{}
	var active []*span
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		active = active[:0]
		deepest := -1
		for _, s := range t.all {
			iv, ok := clip[s]
			if !ok || iv.lo > lo || iv.hi < hi {
				continue
			}
			switch d := depthOf(s.layer); {
			case d > deepest:
				active, deepest = append(active[:0], s), d
			case d == deepest:
				active = append(active, s)
			}
		}
		if len(active) == 0 {
			continue
		}
		n := time.Duration(len(active))
		part := (hi - lo) / n
		share[active[0]] += (hi - lo) - part*n // the integer remainder
		for _, s := range active {
			share[s] += part
		}
	}
	return share
}
