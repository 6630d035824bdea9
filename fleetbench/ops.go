package main

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/uncertain"
)

// tally accumulates what the router's answers report, per timed
// window.
type tally struct {
	queries, nnQueries                    atomic.Int64
	matches, candidates, refined, samples atomic.Int64
	nodeAccesses, nnCandidates            atomic.Int64
	batches, updates                      atomic.Int64
}

// state is one run's live fleet, client and bookkeeping.
type state struct {
	w   *workload
	in  *inputs
	f   *fleet
	cli *client

	// traced selects the pool bodies carrying trace:true, so shard
	// responses include the engine's stage spans.
	traced       atomic.Bool
	tracedBodies [][]byte

	tl atomic.Pointer[tally]

	// answers holds each pool request's first answer hash; on the
	// read-only workloads every later answer must match it.
	answers []atomic.Uint64

	// acked are the acknowledged update batches by router sequence
	// number, replayed into the reference engine.
	ackMu sync.Mutex
	acked map[uint64][]serve.UpdateJSON

	// ckptTimes and ckptErr record the checkpoint passes.
	ckptTimes []time.Duration
	ckptErr   error
}

func newState(w *workload, in *inputs, f *fleet, cli *client) (*state, error) {
	st := &state{w: w, in: in, f: f, cli: cli,
		answers: make([]atomic.Uint64, len(in.queries)),
		acked:   map[uint64][]serve.UpdateJSON{},
	}
	st.tl.Store(&tally{})
	for _, q := range in.queries {
		q.Trace = true
		b, err := json.Marshal(q)
		if err != nil {
			return nil, err
		}
		st.tracedBodies = append(st.tracedBodies, b)
	}
	return st, nil
}

// query sends the stream's i-th request through the router and checks
// the answer.
func (st *state) query(ctx context.Context, i int) error {
	pi := (st.in.offset + i) % len(st.in.queries)
	body := st.in.bodies[pi]
	if st.traced.Load() {
		body = st.tracedBodies[pi]
	}
	raw, sp, err := st.cli.post(ctx, "/v1/evaluate", body)
	if err != nil {
		return err
	}
	var resp serve.EvaluateResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return fmt.Errorf("decoding answer: %w", err)
	}
	q := st.in.queries[pi]
	if err := checkAnswer(q, resp); err != nil {
		return fmt.Errorf("request %d: %w", pi, err)
	}
	if sp != nil {
		sp.matches = len(resp.Matches)
		if q.Kind == "nn" {
			sp.engine = resp.Cost.DurationMS
		}
	}
	tl := st.tl.Load()
	tl.queries.Add(1)
	tl.matches.Add(int64(len(resp.Matches)))
	tl.candidates.Add(int64(resp.Cost.Candidates))
	tl.refined.Add(int64(resp.Cost.Refined))
	tl.nodeAccesses.Add(resp.Cost.NodeAccesses)
	if q.Kind == "nn" {
		tl.nnQueries.Add(1)
		tl.samples.Add(resp.Cost.SamplesUsed)
		tl.nnCandidates.Add(int64(resp.Cost.Candidates))
	}
	if !st.w.updates {
		h := hashMatches(resp.Matches)
		if !st.answers[pi].CompareAndSwap(0, h) && st.answers[pi].Load() != h {
			return fmt.Errorf("request %d: answer differs from its earlier answer on unchanged data", pi)
		}
	}
	return nil
}

// checkAnswer validates one router answer on its own: complete
// (not partial), in canonical order, with unique ids and
// probabilities the request's predicate accepts.
func checkAnswer(q serve.RequestJSON, resp serve.EvaluateResponse) error {
	if resp.Partial || len(resp.MissingShards) > 0 {
		return fmt.Errorf("partial answer, missing shards %v", resp.MissingShards)
	}
	seen := make(map[int64]struct{}, len(resp.Matches))
	for i, m := range resp.Matches {
		if m.P <= 0 || m.P > 1 || m.P < q.Threshold || math.IsNaN(m.P) {
			return fmt.Errorf("match %d has p=%v under threshold %v", m.ID, m.P, q.Threshold)
		}
		if _, dup := seen[m.ID]; dup {
			return fmt.Errorf("match %d repeated", m.ID)
		}
		seen[m.ID] = struct{}{}
		if i > 0 {
			prev := resp.Matches[i-1]
			if cmp.Or(cmp.Compare(m.P, prev.P), cmp.Compare(prev.ID, m.ID)) > 0 {
				return fmt.Errorf("matches out of order at %d", i)
			}
		}
	}
	return nil
}

// hashMatches fingerprints an answer's ids and probability bits.
func hashMatches(ms []serve.MatchJSON) uint64 {
	h := fnv.New64a()
	var b [16]byte
	for _, m := range ms {
		putUint64(b[:8], uint64(m.ID))
		putUint64(b[8:], math.Float64bits(m.P))
		h.Write(b[:])
	}
	return h.Sum64() | 1 // never 0, the "unset" marker
}

func putUint64(b []byte, v uint64) {
	for i := range 8 {
		b[i] = byte(v >> (8 * i))
	}
}

// update sends the next batch of the update stream through the router.
func (st *state) update(ctx context.Context, _ int) error {
	req, body, err := st.in.walk.next()
	if err != nil {
		return err
	}
	raw, _, err := st.cli.post(ctx, "/v1/updates", body)
	if err != nil {
		return err
	}
	var resp serve.UpdatesResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return fmt.Errorf("decoding update ack: %w", err)
	}
	if resp.Partial || len(resp.Errors) > 0 {
		return fmt.Errorf("update batch: partial=%v errors=%v", resp.Partial, resp.Errors)
	}
	st.ackMu.Lock()
	st.acked[resp.Seq] = req.Updates
	st.ackMu.Unlock()
	tl := st.tl.Load()
	tl.batches.Add(1)
	tl.updates.Add(int64(len(req.Updates)))
	return nil
}

// checkpoint runs Engine.Checkpoint on every shard, timing each.
func (st *state) checkpoint(ctx context.Context) {
	for _, node := range st.f.shards {
		t0 := time.Now()
		_, err := node.eng.Checkpoint(ctx)
		st.ckptTimes = append(st.ckptTimes, time.Since(t0))
		st.ckptErr = cmp.Or(st.ckptErr, err)
	}
}

// verify replays the first w.verify pool requests against the
// quiesced fleet and against one reference engine holding the same
// data and acknowledged updates, comparing probabilities bit for bit.
// It returns how many requests it replayed and the mismatches.
func (st *state) verify(ctx context.Context) (int, []error, error) {
	ref, err := st.reference()
	if err != nil {
		return 0, nil, err
	}
	defer ref.Close()
	var bad []error
	n := min(st.w.verify, len(st.in.queries))
	for pi := range n {
		q := st.in.queries[pi]
		raw, _, err := st.cli.post(ctx, "/v1/evaluate", st.in.bodies[pi])
		if err != nil {
			bad = append(bad, fmt.Errorf("request %d: fleet: %w", pi, err))
			continue
		}
		var got serve.EvaluateResponse
		if err := json.Unmarshal(raw, &got); err != nil {
			bad = append(bad, fmt.Errorf("request %d: decoding: %w", pi, err))
			continue
		}
		req, err := q.ToRequest()
		if err != nil {
			return 0, nil, err
		}
		if req.Kind == core.KindNN {
			req.Options.MaxSamples = serve.DefaultNNBudget // as the router and shards do
		}
		want, err := ref.Evaluate(ctx, req)
		if err != nil {
			return 0, nil, fmt.Errorf("reference request %d: %w", pi, err)
		}
		if err := sameMatches(got.Matches, want.Matches); err != nil {
			bad = append(bad, fmt.Errorf("request %d (%s): %w", pi, q.Kind, err))
			continue
		}
		if h := st.answers[pi].Load(); h != 0 && h != hashMatches(got.Matches) {
			bad = append(bad, fmt.Errorf("request %d: quiesced answer differs from the timed one", pi))
		}
	}
	return n, bad, nil
}

func sameMatches(got []serve.MatchJSON, want []core.Match) error {
	if len(got) != len(want) {
		return fmt.Errorf("fleet has %d matches, reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != int64(want[i].ID) || math.Float64bits(got[i].P) != math.Float64bits(want[i].P) {
			return fmt.Errorf("match %d: fleet (%d, %v), reference (%d, %v)", i, got[i].ID, got[i].P, want[i].ID, want[i].P)
		}
	}
	return nil
}

// reference builds one engine with the initial data, then applies the
// acknowledged batches in the router's commit order.
func (st *state) reference() (*core.Engine, error) {
	var pts []uncertain.PointObject
	var objs []*uncertain.Object
	for _, u := range append(append([]serve.UpdateJSON{}, st.in.points...), st.in.objects...) {
		cu, err := u.ToUpdate()
		if err != nil {
			return nil, err
		}
		if cu.Object != nil {
			objs = append(objs, cu.Object)
		} else {
			pts = append(pts, cu.Point)
		}
	}
	eng, err := core.NewEngine(pts, objs, core.EngineOptions{})
	if err != nil {
		return nil, err
	}
	st.ackMu.Lock()
	seqs := make([]uint64, 0, len(st.acked))
	for s := range st.acked {
		seqs = append(seqs, s)
	}
	slices.Sort(seqs)
	var ups []serve.UpdateJSON
	for _, s := range seqs {
		ups = append(ups, st.acked[s]...)
	}
	st.ackMu.Unlock()
	for lo := 0; lo < len(ups); lo += loadChunk {
		batch := make([]core.Update, 0, loadChunk)
		for _, u := range ups[lo:min(lo+loadChunk, len(ups))] {
			cu, err := u.ToUpdate()
			if err != nil {
				return nil, errors.Join(err, eng.Close())
			}
			batch = append(batch, cu)
		}
		if rep := eng.ApplyUpdates(batch); len(rep.Errors) > 0 {
			return nil, errors.Join(rep.Errors[0], eng.Close())
		}
	}
	return eng, nil
}
