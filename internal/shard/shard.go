// Package shard provides the partition-parallel execution layer: a sharded
// engine that hash-routes tuples by planner-derived partition key onto N
// worker shards, each owning an independent single-threaded esl.Engine
// replica. Keyed SEQ queries (Example 6's per-tag quality chains) and
// stateless filter-projections distribute across all shards; everything
// whose outcome depends on global state or the global clock — aggregates,
// exception timers, EXISTS windows, table access — runs on shard 0, which
// observes the exact serial event-time sequence via per-item heartbeats.
// The feed side — ingest boundary, order check, routing, heartbeats and the
// timestamp-ordered output fan-in — is the Front (front.go) the cluster
// client shares; this file is the in-process transport behind it.
package shard

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/db"
	"repro/internal/esl"
	"repro/internal/snapshot"
	"repro/internal/stream"
)

// Row re-exports the engine row type for sharded callbacks.
type Row = esl.Row

// errClosed rejects calls on a closed (or killed) engine.
var errClosed = errors.New("shard: engine closed")

// querySlot is the shard side of one output slot (query callback or stream
// subscription); the Front holds its callbacks under the same index.
type querySlot struct {
	q      *esl.Query   // replica-0 instance; nil for subscriptions
	perRep []*esl.Query // per-replica instances (RegisterQuery slots only)
	home   int          // -1 = rows may come from any shard; else only this shard
}

// command is one unit of worker input: a batch of items and/or an ack
// barrier.
type command struct {
	items []stream.Item
	ack   chan error
}

type worker struct {
	id   int
	par  *Engine
	eng  *esl.Engine
	in   chan command
	done chan struct{}
	err  error // sticky: first batch failure; later items drop

	out []Event
	seq uint64
}

// collect buffers one output event produced while this worker (or, during
// registration, the caller's goroutine with all workers idle) executes its
// replica.
func (w *worker) collect(ev Event) {
	if h := w.par.slots[ev.Slot].home; h >= 0 && h != w.id {
		return // pinned query output counts only from its home shard
	}
	w.seq++
	ev.Seq = w.seq
	w.out = append(w.out, ev)
}

func (w *worker) run() {
	defer close(w.done)
	for cmd := range w.in {
		if len(cmd.items) > 0 && w.err == nil {
			if err := w.eng.PushBatch(cmd.items); err != nil {
				w.err = err
			}
			w.flushOut()
		}
		if cmd.ack != nil {
			cmd.ack <- w.err
		}
	}
}

// outBufCap bounds the capacity a worker's output buffer may retain between
// flushes. The fan-in copies events into its heaps during Offer, so the
// buffer is dead storage afterwards — without the cap, a one-time output
// burst (a CHRONICLE match fan-out, a backlogged FOLLOWING window firing)
// would pin a peak-sized slice on every worker forever.
const outBufCap = 1024

func (w *worker) flushOut() {
	if len(w.out) == 0 {
		return
	}
	w.par.front.Output(w.id, w.out, w.eng.Now())
	if cap(w.out) > outBufCap {
		w.out = nil // drop the burst-sized array; steady state re-grows small
	} else {
		w.out = w.out[:0]
	}
}

// Engine is the sharded facade. All registration and ingestion methods are
// safe for use from one goroutine (the feed); output callbacks run on
// worker goroutines, serialized by the fan-in, and must not call back into
// the Engine (the same reentrancy rule as the serial engine).
type Engine struct {
	Door // StreamSchema, Push, PushTuple, Heartbeat, Feed, PushBatch, OnDeadLetter

	mu       sync.Mutex
	n        int
	replicas []*esl.Engine
	workers  []*worker

	// front is the feed side: its ingest stage runs once, before routing,
	// so every replica receives strictly ordered input, and its fan-in
	// re-merges the workers' output.
	front *Front

	slots    []*querySlot
	retained map[string]bool
	closed   bool

	// Durability (snapshot.go): the journal and checkpoint cadence live at
	// the sharded boundary — items are logged before routing, and snapshots
	// stitch one section per shard — so the replicas stay journal-free.
	dur *snapshot.Lifecycle
}

// New builds a sharded engine over n independent replicas. n must be >= 1;
// with n == 1 the engine degenerates to a batched serial engine. Options are
// the serial engine's fault-tolerance options (esl.WithSlack,
// esl.WithLateness, ...); they configure the shared ingest boundary in front
// of the router — the replicas themselves stay strict, since the boundary
// releases tuples already in joint-history order.
func New(n int, opts ...esl.Option) *Engine {
	if n < 1 {
		n = 1
	}
	e := &Engine{
		n:        n,
		retained: map[string]bool{},
	}
	var cfg esl.Config
	for _, opt := range opts {
		opt(&cfg)
	}
	e.front = NewFront(FrontConfig{
		Name:       "shard",
		Partitions: n,
		Ingest:     cfg.Ingest,
		Lock:       &e.mu,
		Resolve:    func(name string) (*stream.Schema, bool) { return e.replicas[0].StreamSchema(name) },
		Partition:  func(h uint64) int { return int(h % uint64(n)) },
		Admit: func(items []stream.Item, offer func([]stream.Item) error) error {
			if e.closed {
				return errClosed
			}
			// A journaling lifecycle offers item by item, so on a mid-batch
			// rejection the journal holds exactly the offered items and
			// replay rebuilds the identical boundary state.
			return e.dur.Offer(items, offer)
		},
		Flush: e.flushLocked,
	})
	e.Door = e.front
	e.dur = snapshot.NewLifecycle(cfg.JournalDir, cfg.Journal, cfg.CheckpointEvery, snapshot.Hooks{
		Name:    "shard",
		Save:    e.saveStateLocked,
		Load:    e.loadStateLocked,
		Resolve: e.StreamSchema,
		Apply:   e.applyReplayLocked,
		Quiesce: e.quiesceLocked,
		// Shard 0 is home of every table-touching query, so its store is the
		// authoritative copy the checkpoint names as the version at lsn.
		Cut: func(lsn uint64) { e.replicas[0].CutVersions(lsn) },
	})
	// The execution escape hatches and the version-retention bound propagate
	// to the replicas; the ingest and durability knobs are consumed at the
	// sharded boundary above.
	ropts := []esl.Option{esl.WithRetainVersions(cfg.RetainVersions)}
	if cfg.NoRouteIndex {
		ropts = append(ropts, esl.WithoutRouteIndex())
	}
	if cfg.NoPlanMerge {
		ropts = append(ropts, esl.WithoutPlanMerge())
	}
	for i := 0; i < n; i++ {
		w := &worker{
			id:   i,
			par:  e,
			eng:  esl.New(ropts...),
			in:   make(chan command, 1),
			done: make(chan struct{}),
		}
		w.eng.OnDeadLetter(e.front.deadLetter)
		e.replicas = append(e.replicas, w.eng)
		e.workers = append(e.workers, w)
		go w.run()
	}
	return e
}

// EngineStats aggregates the robustness counters: the shared boundary's
// ingest stats plus the replicas' quarantined-query count. Call after Drain
// for a deterministic snapshot.
func (e *Engine) EngineStats() esl.EngineStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := esl.EngineStats{Watermark: e.front.lastTS}
	if ing := e.front.ingest; ing != nil {
		is := ing.Stats()
		st.Ingested = is.Ingested
		st.Emitted = is.Emitted
		st.Reordered = is.Reordered
		st.DroppedLate = is.DroppedLate
		st.DroppedDup = is.DroppedDup
		st.DeadLettered = is.DeadLettered
		st.PendingReorder = ing.Pending()
		if wm := ing.Watermark(); wm > stream.MinTimestamp {
			st.Watermark = wm
		}
	}
	for _, r := range e.replicas {
		rs := r.EngineStats()
		st.QuarantinedQueries += rs.QuarantinedQueries
		st.RoutedDeliveries += rs.RoutedDeliveries
		st.SkippedDeliveries += rs.SkippedDeliveries
	}
	return st
}

// Shards returns the shard count.
func (e *Engine) Shards() int { return e.n }

// SetBatchSize tunes how many pending items buffer before a flush to the
// workers. Larger batches amortize routing and lock overhead; smaller ones
// reduce output latency.
func (e *Engine) SetBatchSize(k int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if k < 1 {
		k = 1
	}
	e.front.cfg.BatchSize = k
}

// ---- registration ----------------------------------------------------------

// barrierLocked flushes pending input and waits until every worker has
// drained its queue, returning the first sticky worker error.
func (e *Engine) barrierLocked() error {
	if e.closed {
		return errClosed
	}
	if err := e.flushLocked(); err != nil {
		return err
	}
	acks := make([]chan error, e.n)
	for i, w := range e.workers {
		acks[i] = make(chan error, 1)
		w.in <- command{ack: acks[i]}
	}
	var first error
	for _, ch := range acks {
		if err := <-ch; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// drainRegistrationOutput offers rows produced synchronously during a
// registration call (e.g. a script's immediate table-sourced INSERT
// SELECT) to the fan-in. Workers are idle here, so reading their buffers
// is safe.
func (e *Engine) drainRegistrationOutput() {
	for _, w := range e.workers {
		w.flushOut()
	}
}

// CreateStream declares a stream on every replica.
func (e *Engine) CreateStream(name string, cols ...stream.Field) (*stream.Schema, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.barrierLocked(); err != nil {
		return nil, err
	}
	var schema *stream.Schema
	for i, r := range e.replicas {
		s, err := r.CreateStream(name, cols...)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			schema = s
		}
	}
	e.recomputeRoutesLocked()
	return schema, nil
}

// RetainHistory keeps recent history for snapshot queries. The stream pins
// to shard 0 so its history is complete there.
func (e *Engine) RetainHistory(name string, d time.Duration) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.barrierLocked(); err != nil {
		return err
	}
	if err := e.replicas[0].RetainHistory(name, d); err != nil {
		return err
	}
	e.retained[strings.ToLower(name)] = true
	e.recomputeRoutesLocked()
	return nil
}

// Exec applies a script to every replica and returns the continuous
// queries registered on replica 0.
func (e *Engine) Exec(script string) ([]*esl.Query, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.barrierLocked(); err != nil {
		return nil, err
	}
	var qs0 []*esl.Query
	var firstErr error
	for i, r := range e.replicas {
		qs, err := r.Exec(script)
		if i == 0 {
			qs0 = qs
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	e.drainRegistrationOutput()
	e.recomputeRoutesLocked()
	return qs0, firstErr
}

// RegisterQuery compiles a continuous SELECT on every replica; onRow
// receives the merged output.
func (e *Engine) RegisterQuery(name, sql string, onRow func(Row)) (*esl.Query, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.barrierLocked(); err != nil {
		return nil, err
	}
	slotIdx := e.front.AddSlot(onRow, nil)
	slot := &querySlot{home: -1}
	e.slots = append(e.slots, slot)
	var q0 *esl.Query
	for i, r := range e.replicas {
		w := e.workers[i]
		var cb func(Row)
		if onRow != nil {
			cb = func(row Row) { w.collect(Event{Slot: slotIdx, Row: row, TS: row.TS}) }
		}
		q, err := r.RegisterQuery(name, sql, cb)
		if err != nil {
			if i > 0 {
				err = fmt.Errorf("shard: replica %d diverged registering %q: %w", i, sql, err)
			}
			return nil, err
		}
		if i == 0 {
			q0 = q
		}
		slot.perRep = append(slot.perRep, q)
	}
	slot.q = q0
	e.drainRegistrationOutput()
	e.recomputeRoutesLocked()
	return q0, nil
}

// Unregister removes a continuous query — identified by the replica-0
// handle RegisterQuery returned — from every replica, releasing its share
// of any merged automaton. Queries registered through Exec cannot be
// unregistered (their per-replica handles are not retained).
func (e *Engine) Unregister(q *esl.Query) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.barrierLocked(); err != nil {
		return err
	}
	for i, slot := range e.slots {
		if slot.q == nil || slot.q != q {
			continue
		}
		for i, rq := range slot.perRep {
			if err := e.replicas[i].Unregister(rq); err != nil {
				return fmt.Errorf("shard: replica %d: %w", i, err)
			}
		}
		// The slot index stays live (other slots hold positions after it);
		// clearing its sinks makes any straggler event a no-op.
		slot.q, slot.perRep = nil, nil
		e.front.slots[i].row = nil
		e.recomputeRoutesLocked()
		return nil
	}
	return fmt.Errorf("shard: query %q is not registered (or was registered via Exec)", q.Name)
}

// Subscribe delivers every tuple entering the named stream (source or
// derived), merged across shards in timestamp order.
func (e *Engine) Subscribe(name string, fn func(*stream.Tuple)) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.barrierLocked(); err != nil {
		return err
	}
	slotIdx := e.front.AddSlot(nil, fn)
	e.slots = append(e.slots, &querySlot{home: -1})
	for i, r := range e.replicas {
		w := e.workers[i]
		if err := r.Subscribe(name, func(t *stream.Tuple) {
			w.collect(Event{Slot: slotIdx, Tup: t, TS: t.TS})
		}); err != nil {
			return err
		}
	}
	return nil
}

// ForEachReplica runs fn on every replica with all workers idle — the hook
// for installing Go UDFs/UDAs or tables on all shards before data flows.
func (e *Engine) ForEachReplica(fn func(*esl.Engine) error) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.barrierLocked(); err != nil {
		return err
	}
	for _, r := range e.replicas {
		if err := fn(r); err != nil {
			return err
		}
	}
	e.drainRegistrationOutput()
	e.recomputeRoutesLocked()
	return nil
}

// Store returns shard 0's table store — the authoritative copy: all
// table-touching queries are pinned there.
func (e *Engine) Store() *db.Store { return e.replicas[0].Store() }

// Query runs an ad-hoc snapshot SELECT against shard 0 after a full
// barrier, so retained history and tables reflect everything pushed. AS OF
// anchors resolve against the boundary's LSN, exactly as on a serial engine
// fed the same items.
func (e *Engine) Query(sql string) ([]Row, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.barrierLocked(); err != nil {
		return nil, err
	}
	e.replicas[0].SetLSN(e.dur.LSN())
	return e.replicas[0].Query(sql)
}

// Now returns the newest event time accepted for ingestion.
func (e *Engine) Now() stream.Timestamp {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.front.lastTS == stream.MinTimestamp {
		return 0
	}
	return e.front.lastTS
}

// flushLocked splits the pending buffer into one run per shard and hands
// each run to its worker. Every flush is a keepalive: each shard's run ends
// on the flush's high-water beat, which advances the fan-in watermark.
func (e *Engine) flushLocked() error {
	runs := make([][]stream.Item, e.n)
	e.front.Split(runs, true)
	for s, run := range runs {
		if len(run) > 0 {
			e.workers[s].in <- command{items: run}
		}
	}
	return nil
}

// ---- lifecycle -------------------------------------------------------------

// Flush dispatches buffered input without waiting for completion.
func (e *Engine) Flush() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return errClosed
	}
	return e.flushLocked()
}

// Drain flushes — including tuples held back by the reorder slack — waits
// for every worker to finish, and releases all buffered output in merged
// order. It returns the first ingestion error any shard hit.
func (e *Engine) Drain() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.front.FlushIngest(); err != nil {
		return err
	}
	err := e.barrierLocked()
	e.front.FlushOutput()
	return err
}

// Close drains and stops the workers. The engine rejects further input.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	ferr := e.front.FlushIngest()
	err := e.barrierLocked()
	if err == nil {
		err = ferr
	}
	e.front.FlushOutput()
	e.closed = true
	for _, w := range e.workers {
		close(w.in)
	}
	for _, w := range e.workers {
		<-w.done
	}
	if jerr := e.dur.Close(); err == nil {
		err = jerr
	}
	return err
}
