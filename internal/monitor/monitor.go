package monitor

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/mcbound"
	"repro/internal/uncertain"
)

// Config tunes a Monitor.
type Config struct {
	// Workers is the fan-out of each incremental re-evaluation pass
	// (the worker count handed to EvaluateAll; default 1).
	Workers int
	// Options are the default evaluation options, applied to standing
	// requests registered with a zero Options field; a request
	// carrying its own Options keeps them. Request.Seed is ignored
	// either way: the monitor derives a deterministic sampling seed
	// per re-evaluation pass from Seed, so
	// a fixed engine, registration order, and update trace replay the
	// same delta streams. Timeout and MaxSamples act per re-evaluated
	// request, surfacing as Delta.Err without disturbing the cached
	// set.
	Options core.EvalOptions
	// Seed drives the derived per-pass request seeds (default 1).
	Seed int64
	// MaxPending bounds each subscription's queued deltas. When a
	// slow consumer lets the queue reach the bound, the queue is
	// composed into one cumulative delta (replay-equivalent, coarser
	// granularity) instead of growing without limit. Default 64;
	// negative means unbounded.
	MaxPending int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MaxPending == 0 {
		c.MaxPending = 64
	}
	return c
}

// Stats are a monitor's lifetime counters.
type Stats struct {
	// Registered is the number of live standing queries.
	Registered int
	// Batches and UpdatesApplied count ingested update batches and
	// the updates they committed.
	Batches        int64
	UpdatesApplied int64
	// Reevaluated and Skipped partition standing-query × batch pairs:
	// Skipped counts re-evaluations the guard-region filter avoided.
	Reevaluated int64
	Skipped     int64
	// Deltas counts deltas queued across all subscriptions, Coalesced
	// the queue compositions forced by slow consumers, EvalErrors the
	// re-evaluations that failed (deadline, sample budget).
	Deltas     int64
	Coalesced  int64
	EvalErrors int64
}

// BatchOutcome reports what one ApplyUpdates call did.
type BatchOutcome struct {
	// Report is the engine's ingestion report (applied counts, dirty
	// regions, version).
	Report core.UpdateReport
	// Seq is the batch sequence number carried by the deltas it
	// produced.
	Seq uint64
	// Reevaluated and Skipped count standing queries whose guard
	// region the batch touched (re-evaluated) versus not (cached set
	// kept).
	Reevaluated int
	Skipped     int
	// Entered, Left, and Changed aggregate the delta sizes across the
	// re-evaluated queries.
	Entered, Left, Changed int
}

// Monitor serves standing queries over an engine under a stream of
// updates. All methods are safe for concurrent use; ApplyUpdates
// calls serialize with each other (batches are totally ordered by
// Seq) and with Register.
type Monitor struct {
	eng *core.Engine
	cfg Config

	// ingestMu serializes update batches (and initial evaluations)
	// so every subscription sees a totally ordered stream of states.
	ingestMu sync.Mutex
	seq      uint64

	mu     sync.RWMutex
	subs   map[int64]*Subscription
	nextID int64

	batches, updates, reeval, skipped atomic.Int64
	deltas, coalesced, evalErrors     atomic.Int64

	// met holds the per-batch histograms (see metrics.go); always live.
	met *monMetrics
}

// New builds a monitor over the engine. The engine may keep serving
// one-shot queries and direct updates concurrently; only updates
// ingested through Monitor.ApplyUpdates drive the standing queries'
// delta streams.
func New(eng *core.Engine, cfg Config) *Monitor {
	return &Monitor{
		eng:  eng,
		cfg:  cfg.withDefaults(),
		subs: make(map[int64]*Subscription),
		met:  newMonMetrics(),
	}
}

// Engine returns the engine the monitor serves.
func (m *Monitor) Engine() *core.Engine { return m.eng }

// mixSeed folds the given values into one derived seed.
func mixSeed(vals ...int64) int64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, v := range vals {
		h = mcbound.Mix64(h ^ mcbound.Mix64(uint64(v)))
	}
	return int64(h)
}

// normalize prepares a request for standing evaluation: Request.Seed,
// which the monitor owns, is cleared — every pass re-derives it from
// the monitor seed and the pass key — and zero Options pick up the
// monitor's defaults.
func (m *Monitor) normalize(req core.Request) core.Request {
	req.Seed = 0
	if req.Options == (core.EvalOptions{}) {
		req.Options = m.cfg.Options
	}
	return req
}

// Register adds a standing request, evaluates it once, and returns
// its subscription. A subscription is exactly a standing core.Request
// — any kind the engine evaluates, nearest neighbor included, can
// stand. The subscription's first delta is the registration snapshot
// (every current match in Entered), so replaying the stream from an
// empty set always reconstructs the live answer. Registration
// serializes with ApplyUpdates: the snapshot reflects a batch
// boundary, never a half-applied batch.
func (m *Monitor) Register(req core.Request) (*Subscription, error) {
	req = m.normalize(req)
	guard, err := req.GuardRegion()
	if err != nil {
		return nil, err
	}

	m.ingestMu.Lock()
	defer m.ingestMu.Unlock()

	m.mu.Lock()
	m.nextID++
	id := m.nextID
	m.mu.Unlock()

	// The initial evaluation runs against a pinned snapshot so the
	// registration answer reflects exactly one engine version even if
	// direct (non-monitor) updates commit concurrently.
	eval := req
	eval.Seed = mixSeed(m.cfg.Seed, id, int64(m.seq))
	snap := m.eng.Snapshot()
	resp, err := snap.Evaluate(context.Background(), eval)
	snap.Close()
	if err != nil {
		return nil, err
	}
	res := resp.Result

	sub := &Subscription{
		id:       id,
		req:      req,
		guard:    guard,
		m:        m,
		current:  make(map[uncertain.ID]float64, len(res.Matches)),
		notify:   make(chan struct{}, 1),
		closedCh: make(chan struct{}),
	}
	// The initial evaluation measured tau, so an NN subscription can
	// start with its finite tau-ball guard instead of re-evaluating on
	// every batch until the first hit.
	sub.updateGuardLocked(res)
	sub.stats.Reevals = 1
	sub.noteCostLocked(res.Cost)
	d := Delta{Seq: m.seq, Version: resp.Version, Entered: res.Matches, Cost: res.Cost, Coalesced: 1}
	for _, match := range res.Matches {
		sub.current[match.ID] = match.P
	}
	sub.pending = append(sub.pending, d)
	sub.stats.Deltas = 1
	m.deltas.Add(1)

	m.mu.Lock()
	m.subs[id] = sub
	m.mu.Unlock()
	return sub, nil
}

// Unregister removes the standing query with the given id, reporting
// whether it existed. Its subscription's queued deltas stay drainable;
// Next reports ErrClosed once they are gone.
func (m *Monitor) Unregister(id int64) bool {
	m.mu.Lock()
	sub, ok := m.subs[id]
	delete(m.subs, id)
	m.mu.Unlock()
	if ok {
		sub.close()
	}
	return ok
}

// snapshotSubs returns the live subscriptions ordered by id — the
// deterministic batch order re-evaluation seeds key on.
func (m *Monitor) snapshotSubs() []*Subscription {
	m.mu.RLock()
	out := make([]*Subscription, 0, len(m.subs))
	for _, s := range m.subs {
		out = append(out, s)
	}
	m.mu.RUnlock()
	slices.SortFunc(out, func(a, b *Subscription) int { return int(a.id - b.id) })
	return out
}

// Subscriptions returns the live subscriptions ordered by id (for
// metrics and introspection).
func (m *Monitor) Subscriptions() []*Subscription { return m.snapshotSubs() }

// Subscription returns the live subscription with the given id.
func (m *Monitor) Subscription(id int64) (*Subscription, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	s, ok := m.subs[id]
	return s, ok
}

// ApplyUpdates ingests one update batch: it applies the batch to the
// engine (atomically with respect to queries — see
// core.Engine.ApplyUpdates), then incrementally re-evaluates exactly
// the standing queries whose guard region the batch's dirty
// rectangles touch, streaming each one's delta to its subscription.
// Untouched queries keep their cached qualifying set at zero cost
// (BatchOutcome.Skipped counts them).
//
// Re-evaluation runs through the engine's one fan-out form,
// Snapshot.EvaluateAll: Config.Workers wide, per-request deadline and
// sample budget from each standing request's options, deltas
// delivered through the serialized callback — and against the
// post-batch snapshot, pinned atomically with the commit
// (core.Engine.ApplyUpdatesSnapshot). Every delta of sequence
// Seq therefore reflects exactly the engine version its report
// records: updates committing concurrently — further monitor batches
// queued behind ingestMu, or direct engine mutations bypassing the
// monitor — cannot leak into the pass, which is what keeps delta
// replay bit-exact against Engine.Version. The snapshot also means
// the pass never blocks those concurrent writers, however long the
// re-evaluations run.
//
// ctx cancels the re-evaluation pass (not the already-committed
// engine batch); the error is returned after every in-flight query
// settles.
func (m *Monitor) ApplyUpdates(ctx context.Context, batch []core.Update) (BatchOutcome, error) {
	m.ingestMu.Lock()
	defer m.ingestMu.Unlock()

	batchStart := time.Now()
	out := BatchOutcome{}
	defer func() { m.met.observeBatch(time.Since(batchStart), out) }()

	rep, snap := m.eng.ApplyUpdatesSnapshot(batch)
	defer snap.Close()
	m.seq++
	out = BatchOutcome{Report: rep, Seq: m.seq}
	m.batches.Add(1)
	m.updates.Add(int64(rep.Applied))

	var affected []*Subscription
	for _, sub := range m.snapshotSubs() {
		// A stale subscription (its last re-evaluation failed) is
		// re-evaluated unconditionally — guard filtering only proves
		// the result unchanged relative to a state the cache no
		// longer reflects.
		if sub.isStale() || (rep.Applied > 0 && rep.Touches(sub.Guard())) {
			affected = append(affected, sub)
		} else {
			sub.noteSkipped()
			out.Skipped++
		}
	}
	out.Reevaluated = len(affected)
	m.reeval.Add(int64(out.Reevaluated))
	m.skipped.Add(int64(out.Skipped))
	if len(affected) == 0 {
		return out, nil
	}

	reqs := make([]core.Request, len(affected))
	for i, sub := range affected {
		reqs[i] = sub.req
	}
	seq := m.seq
	version := snap.Version()
	delivered := make([]bool, len(affected))
	all := core.AllOptions{Workers: m.cfg.Workers, Seed: mixSeed(m.cfg.Seed, int64(m.seq))}
	err := snap.EvaluateAll(ctx, reqs, all, func(i int, resp core.Response, rerr error) {
		delivered[i] = true
		sub := affected[i]
		if rerr != nil {
			sub.applyError(seq, version, rerr, resp.Cost)
			m.evalErrors.Add(1)
			m.deltas.Add(1)
			return
		}
		if d, ok := sub.applyResult(seq, version, resp.Result); ok {
			out.Entered += len(d.Entered)
			out.Left += len(d.Left)
			out.Changed += len(d.Updated)
			m.deltas.Add(1)
		}
	})
	if err != nil {
		// The engine batch is already committed; a cancelled pass
		// must not leave any touched subscription silently stale.
		// Queries the stream never dispatched get an error delta so
		// their consumers see the staleness signal.
		for i, sub := range affected {
			if !delivered[i] {
				sub.applyError(seq, version, err, core.Cost{})
				m.evalErrors.Add(1)
				m.deltas.Add(1)
			}
		}
	}
	return out, err
}

// Stats returns the monitor's counters.
func (m *Monitor) Stats() Stats {
	m.mu.RLock()
	registered := len(m.subs)
	m.mu.RUnlock()
	return Stats{
		Registered:     registered,
		Batches:        m.batches.Load(),
		UpdatesApplied: m.updates.Load(),
		Reevaluated:    m.reeval.Load(),
		Skipped:        m.skipped.Load(),
		Deltas:         m.deltas.Load(),
		Coalesced:      m.coalesced.Load(),
		EvalErrors:     m.evalErrors.Load(),
	}
}
