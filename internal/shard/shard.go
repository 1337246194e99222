// Package shard provides the partition-parallel execution layer: a sharded
// engine that hash-routes tuples by planner-derived partition key onto N
// worker shards, each owning an independent single-threaded esl.Engine
// replica. Keyed SEQ queries (Example 6's per-tag quality chains) and
// stateless filter-projections distribute across all shards; everything
// whose outcome depends on global state or the global clock — aggregates,
// exception timers, EXISTS windows, table access — runs on shard 0, which
// observes the exact serial event-time sequence via per-item heartbeats.
// Output rows re-merge in timestamp order through a bounded fan-in combiner.
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

// DefaultBatchSize is the ingestion buffer length at which pending items
// flush to the workers.
const DefaultBatchSize = 256

// querySlot is one registered output sink (query callback or stream
// subscription).
type querySlot struct {
	q          *esl.Query   // replica-0 instance; nil for subscriptions
	perRep     []*esl.Query // per-replica instances (RegisterQuery slots only)
	home       int          // -1 = rows may come from any shard; else only this shard
	deliverRow func(Row)
	deliverTup func(*stream.Tuple)
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

	out []rowEvent
	seq uint64
}

// collect buffers one output event produced while this worker (or, during
// registration, the caller's goroutine with all workers idle) executes its
// replica.
func (w *worker) collect(ev rowEvent) {
	slot := w.par.slots[ev.slot]
	if slot.home >= 0 && slot.home != w.id {
		return // pinned query output counts only from its home shard
	}
	w.seq++
	ev.seq = w.seq
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
// flushes. The combiner copies events into its heaps during Offer, so the
// buffer is dead storage afterwards — without the cap, a one-time output
// burst (a CHRONICLE match fan-out, a backlogged FOLLOWING window firing)
// would pin a peak-sized slice on every worker forever.
const outBufCap = 1024

func (w *worker) flushOut() {
	if len(w.out) == 0 {
		return
	}
	w.par.comb.Offer(w.id, w.out, w.eng.Now())
	if cap(w.out) > outBufCap {
		w.out = nil // drop the burst-sized array; steady state re-grows small
	} else {
		w.out = w.out[:0]
	}
}

// Engine is the sharded facade. All registration and ingestion methods are
// safe for use from one goroutine (the feed); output callbacks run on
// worker goroutines, serialized by the combiner, and must not call back
// into the Engine (the same reentrancy rule as the serial engine).
type Engine struct {
	mu       sync.Mutex
	n        int
	replicas []*esl.Engine
	workers  []*worker
	comb     *combiner

	routes   map[string]Route
	homes    map[*esl.Query]int
	slots    []*querySlot
	retained map[string]bool

	// exactClock mirrors replicas[0].TimeSensitive(), cached at registration
	// time (workers idle) so the hot flush path never touches the replica
	// lock. True when a pinned query defers work against event time —
	// exception timers, expiry windows, deferred EXISTS — in which case shard
	// 0 must observe a heartbeat at every foreign tuple's position. False
	// means the clock only gates space reclamation and derived-tuple
	// restamping, both insensitive to intermediate beats, so one trailing
	// batch-high-water beat suffices.
	exactClock bool

	pending   []stream.Item
	batchSize int
	rr        int // round-robin cursor for free streams
	lastTS    stream.Timestamp
	closed    bool

	// Fault tolerance: the ingest stage guards the sharded boundary — slack
	// reordering, lateness policy, screening, and dedup all run once, before
	// hash routing, so every replica still receives strictly ordered input.
	// Dead letters (boundary and replica query panics) fan into onDead under
	// deadMu: replica panics surface on worker goroutines concurrently.
	ingest        *stream.Ingest
	ingestScratch []stream.Item
	deadMu        sync.Mutex
	onDead        []func(stream.DeadLetter)

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
		n:         n,
		routes:    map[string]Route{},
		homes:     map[*esl.Query]int{},
		retained:  map[string]bool{},
		batchSize: DefaultBatchSize,
		lastTS:    stream.MinTimestamp,
	}
	var cfg esl.Config
	for _, opt := range opts {
		opt(&cfg)
	}
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
	if !cfg.Ingest.IsZero() {
		cfg.Ingest.OnDead = e.dispatchDead
		e.ingest = stream.NewIngest(cfg.Ingest)
	}
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
	e.comb = newCombiner(n, combinerMaxBuffer, e.deliverEvent)
	for i := 0; i < n; i++ {
		w := &worker{
			id:   i,
			par:  e,
			eng:  esl.New(ropts...),
			in:   make(chan command, 1),
			done: make(chan struct{}),
		}
		w.eng.OnDeadLetter(e.dispatchDead)
		e.replicas = append(e.replicas, w.eng)
		e.workers = append(e.workers, w)
		go w.run()
	}
	return e
}

// OnDeadLetter subscribes to the quarantine stream: boundary records (late,
// malformed, oversized) and replica query-panic records all arrive here. fn
// may be called from worker goroutines; calls are serialized.
func (e *Engine) OnDeadLetter(fn func(stream.DeadLetter)) {
	e.deadMu.Lock()
	defer e.deadMu.Unlock()
	e.onDead = append(e.onDead, fn)
}

func (e *Engine) dispatchDead(dl stream.DeadLetter) {
	e.deadMu.Lock()
	defer e.deadMu.Unlock()
	for _, fn := range e.onDead {
		fn(dl)
	}
}

// EngineStats aggregates the robustness counters: the shared boundary's
// ingest stats plus the replicas' quarantined-query count. Call after Drain
// for a deterministic snapshot.
func (e *Engine) EngineStats() esl.EngineStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := esl.EngineStats{Watermark: e.lastTS}
	if e.ingest != nil {
		is := e.ingest.Stats()
		st.Ingested = is.Ingested
		st.Emitted = is.Emitted
		st.Reordered = is.Reordered
		st.DroppedLate = is.DroppedLate
		st.DroppedDup = is.DroppedDup
		st.DeadLettered = is.DeadLettered
		st.PendingReorder = e.ingest.Pending()
		if wm := e.ingest.Watermark(); wm > stream.MinTimestamp {
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

func (e *Engine) deliverEvent(ev rowEvent) {
	slot := e.slots[ev.slot]
	switch {
	case ev.tup != nil && slot.deliverTup != nil:
		slot.deliverTup(ev.tup)
	case slot.deliverRow != nil:
		slot.deliverRow(ev.row)
	}
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
	e.batchSize = k
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
// SELECT) to the combiner. Workers are idle here, so reading their buffers
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

// StreamSchema returns a declared stream's schema.
func (e *Engine) StreamSchema(name string) (*stream.Schema, bool) {
	return e.replicas[0].StreamSchema(name)
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
	slotIdx := len(e.slots)
	slot := &querySlot{home: -1, deliverRow: onRow}
	e.slots = append(e.slots, slot)
	var q0 *esl.Query
	for i, r := range e.replicas {
		w := e.workers[i]
		var cb func(Row)
		if onRow != nil {
			cb = func(row Row) { w.collect(rowEvent{slot: slotIdx, row: row, ts: row.TS}) }
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
	for _, slot := range e.slots {
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
		slot.q, slot.perRep, slot.deliverRow = nil, nil, nil
		delete(e.homes, q)
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
	slotIdx := len(e.slots)
	e.slots = append(e.slots, &querySlot{home: -1, deliverTup: fn})
	for i, r := range e.replicas {
		w := e.workers[i]
		if err := r.Subscribe(name, func(t *stream.Tuple) {
			w.collect(rowEvent{slot: slotIdx, tup: t, ts: t.TS})
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
	if e.lastTS == stream.MinTimestamp {
		return 0
	}
	return e.lastTS
}

// ---- ingestion -------------------------------------------------------------

// Push appends one tuple to a source stream.
func (e *Engine) Push(streamName string, ts stream.Timestamp, vals ...stream.Value) error {
	schema, ok := e.StreamSchema(streamName)
	if !ok {
		return fmt.Errorf("shard: unknown stream %s", streamName)
	}
	t, err := stream.NewTuple(schema, ts, vals...)
	if err != nil {
		return err
	}
	return e.PushTuple(streamName, t)
}

// PushTuple appends a pre-built tuple; its schema must name the stream.
func (e *Engine) PushTuple(streamName string, t *stream.Tuple) error {
	if !strings.EqualFold(t.Schema.Name(), streamName) {
		return fmt.Errorf("shard: tuple schema %q does not match stream %q (sharded routing dispatches by schema name)",
			t.Schema.Name(), streamName)
	}
	return e.PushBatch([]stream.Item{stream.Of(t)})
}

// Heartbeat advances event time on every shard (punctuation).
func (e *Engine) Heartbeat(ts stream.Timestamp) error {
	return e.PushBatch([]stream.Item{stream.Heartbeat(ts)})
}

// Feed connects a stream.Merger emission to the sharded engine.
func (e *Engine) Feed(name string, it stream.Item) error {
	if it.IsHeartbeat() {
		return e.Heartbeat(it.TS)
	}
	return e.PushTuple(name, it.Tuple)
}

// PushBatch buffers a run of merged items — tuples and heartbeats in
// joint-history (non-decreasing timestamp) order — flushing to the workers
// whenever the buffer fills. Results become observable after the flush that
// carries them; call Flush or Drain for a deterministic cut.
func (e *Engine) PushBatch(items []stream.Item) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return errClosed
	}
	// A journaling lifecycle offers item by item, so on a mid-batch rejection
	// the journal holds exactly the offered items and replay rebuilds the
	// identical boundary state.
	if err := e.dur.Offer(items, e.offerLocked); err != nil {
		return err
	}
	if len(e.pending) >= e.batchSize {
		return e.flushLocked()
	}
	return nil
}

// offerLocked admits items into the pending buffer, one at a time through
// the ingest stage when one is configured.
func (e *Engine) offerLocked(items []stream.Item) error {
	if e.ingest == nil {
		return e.enqueueRunLocked(items)
	}
	for _, it := range items {
		out, lateErr := e.ingest.Offer(it, e.ingestScratch[:0])
		err := e.enqueueRunLocked(out)
		e.ingestScratch = out[:0]
		if err == nil {
			err = lateErr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// enqueueRunLocked appends an ordered run of items to the pending buffer,
// enforcing the joint-history arrival contract. Items released by the ingest
// stage always satisfy it; direct input must arrive pre-merged.
func (e *Engine) enqueueRunLocked(items []stream.Item) error {
	for _, it := range items {
		if !it.IsHeartbeat() {
			if it.TS < e.lastTS {
				return fmt.Errorf("shard: out-of-order arrival on %s: %s is before %s (merge concurrent sources with stream.Merger, or enable slack with esl.WithSlack)",
					it.Tuple.Schema.Name(), it.TS, e.lastTS)
			}
			e.lastTS = it.TS
		} else if it.TS > e.lastTS {
			e.lastTS = it.TS
		}
		e.pending = append(e.pending, it)
	}
	return nil
}

// flushLocked routes the pending buffer into per-shard batches and
// dispatches them.
//
// When a pinned query is time-sensitive (exactClock), shard 0 receives a
// heartbeat at the position (and timestamp) of every tuple routed
// elsewhere, so its replica — home of all pinned queries — observes the
// exact event-time sequence the serial engine would: deferred windows and
// exception timers fire at the same points. Otherwise those per-tuple
// beats coalesce into the trailing batch-high-water beat that every shard
// gets anyway — enough to evict windows, restamp derived tuples (input is
// non-decreasing, so no shard-0 tuple ever lands below a dropped beat),
// and advance the combiner watermark.
func (e *Engine) flushLocked() error {
	if len(e.pending) == 0 {
		return nil
	}
	for s, b := range e.routeBatchesLocked() {
		if len(b) > 0 {
			e.workers[s].in <- command{items: b}
		}
	}
	return nil
}

// routeBatchesLocked splits the pending buffer into per-shard item runs
// (consuming it) without dispatching — split out of flushLocked so the
// heartbeat regimes are testable against idle workers.
func (e *Engine) routeBatchesLocked() [][]stream.Item {
	batches := make([][]stream.Item, e.n)
	maxTS := stream.MinTimestamp
	for _, it := range e.pending {
		if it.TS > maxTS {
			maxTS = it.TS
		}
		if it.IsHeartbeat() {
			for s := 0; s < e.n; s++ {
				batches[s] = appendBeat(batches[s], it.TS)
			}
			continue
		}
		s := e.shardForLocked(it.Tuple)
		batches[s] = append(batches[s], it)
		if s != 0 && e.exactClock {
			batches[0] = appendBeat(batches[0], it.TS)
		}
	}
	e.pending = e.pending[:0]
	for s := 0; s < e.n; s++ {
		if s == 0 && e.exactClock {
			continue // already carries per-tuple beats through maxTS
		}
		batches[s] = appendBeat(batches[s], maxTS)
	}
	return batches
}

// appendBeat appends a heartbeat unless the batch already ends at ts
// (input is non-decreasing, so equal timestamps collapse).
func appendBeat(batch []stream.Item, ts stream.Timestamp) []stream.Item {
	if n := len(batch); n > 0 && batch[n-1].TS >= ts {
		return batch
	}
	return append(batch, stream.Heartbeat(ts))
}

func (e *Engine) shardForLocked(t *stream.Tuple) int {
	rt, ok := e.routes[strings.ToLower(t.Schema.Name())]
	if !ok {
		return 0 // unknown stream: shard 0's replica reports the error
	}
	switch rt.Mode {
	case RouteKeyed:
		return int(t.Get(rt.KeyPos).Hash() % uint64(e.n))
	case RouteFree:
		e.rr++
		return e.rr % e.n
	default:
		return 0
	}
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

// flushIngestLocked releases every tuple still held back by the reorder
// stage (end of stream: the frontier has arrived) into the pending buffer.
func (e *Engine) flushIngestLocked() error {
	if e.ingest == nil {
		return nil
	}
	out := e.ingest.Flush(e.ingestScratch[:0])
	err := e.enqueueRunLocked(out)
	e.ingestScratch = out[:0]
	return err
}

// Drain flushes — including tuples held back by the reorder slack — waits
// for every worker to finish, and releases all buffered output in merged
// order. It returns the first ingestion error any shard hit.
func (e *Engine) Drain() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.flushIngestLocked(); err != nil {
		return err
	}
	err := e.barrierLocked()
	e.comb.FlushAll()
	return err
}

// Close drains and stops the workers. The engine rejects further input.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	ferr := e.flushIngestLocked()
	err := e.barrierLocked()
	if err == nil {
		err = ferr
	}
	e.comb.FlushAll()
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
