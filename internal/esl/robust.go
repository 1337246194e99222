package esl

import (
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/snapshot"
	"repro/internal/stream"
)

// Config collects the engine's fault-tolerance knobs. The zero value is the
// strict historical behavior: no slack, ERROR lateness policy, no screening,
// no dedup.
type Config struct {
	Ingest stream.IngestConfig
	// NoRouteIndex disables the shared multi-query routing index, forcing
	// every tuple through every registered reader (the pre-index behavior).
	// Escape hatch for debugging and for the equivalence test suites.
	NoRouteIndex bool
	// NoPlanMerge disables multi-query plan merging: every SEQ query runs
	// its own automaton (the pre-merge behavior). Escape hatch for debugging
	// and the reference arm of the merge equivalence suite.
	NoPlanMerge bool

	// Durability (snapshot.go): JournalDir enables the write-ahead event
	// journal; Journal tunes segment rotation and the fsync policy;
	// CheckpointEvery writes a snapshot into JournalDir every n journaled
	// items (0 = only on explicit CheckpointNow).
	JournalDir      string
	Journal         snapshot.JournalConfig
	CheckpointEvery int

	// RetainVersions bounds the table history kept for AS OF queries: each
	// checkpoint names the current state of every table, and only the newest
	// n named versions stay reachable (0 = retain all). Versions pinned by
	// in-flight readers survive the bound until unpinned.
	RetainVersions int
}

// Option mutates the engine configuration at construction.
type Option func(*Config)

// WithSlack absorbs bounded disorder at the ingest boundary: tuples are held
// back until the per-engine high-water mark passes ts+slack, then released
// to the exact in-order core in (timestamp, arrival) order. The engine's
// clock then trails the newest arrival by at most slack; Drain flushes the
// tail at end of stream.
func WithSlack(d time.Duration) Option {
	return func(c *Config) { c.Ingest.Slack = d }
}

// WithLateness selects the fate of tuples behind the watermark: ERROR (the
// default — reject with an error), DROP (discard, counted), or DEAD_LETTER
// (route to the quarantine subscribers with reason codes).
func WithLateness(p stream.LatenessPolicy) Option {
	return func(c *Config) { c.Ingest.Policy = p }
}

// WithMaxTupleBytes quarantines rows whose estimated in-memory size exceeds
// the budget (reason OVERSIZED) instead of admitting them.
func WithMaxTupleBytes(n int) Option {
	return func(c *Config) { c.Ingest.MaxTupleBytes = n }
}

// WithExactDedup drops exact duplicate tuples (same stream, timestamp and
// values) arriving within the reorder horizon — the cheap reader-overlap
// cleaning pass that runs before any query sees the stream.
func WithExactDedup() Option {
	return func(c *Config) { c.Ingest.Dedup = true }
}

// WithJournal enables the append-only event journal in dir: every offered
// item (tuple or heartbeat) is logged, CRC-guarded, before it enters the
// ingest boundary. Paired with periodic snapshots (WithCheckpointEvery or
// CheckpointNow), Recover rebuilds the engine after a crash by loading the
// newest snapshot and replaying the journal suffix.
func WithJournal(dir string) Option {
	return func(c *Config) { c.JournalDir = dir }
}

// WithCheckpointEvery writes a durable snapshot into the journal directory
// every n journaled items. The snapshot bounds replay work after a crash;
// smaller n shortens recovery at the cost of more checkpoint I/O.
func WithCheckpointEvery(n int) Option {
	return func(c *Config) { c.CheckpointEvery = n }
}

// WithRetainVersions keeps only the newest n checkpoint-cut table versions
// reachable for AS OF queries, releasing older history to the garbage
// collector (0, the default, retains all). Pinned versions outlive the
// bound until their readers finish.
func WithRetainVersions(n int) Option {
	return func(c *Config) { c.RetainVersions = n }
}

// WithFsync selects the journal's durability/throughput trade-off:
// FsyncNever (OS page cache only), FsyncInterval (every SyncEvery records,
// the default), or FsyncAlways (every record).
func WithFsync(p snapshot.FsyncPolicy) Option {
	return func(c *Config) { c.Journal.Fsync = p }
}

// WithoutRouteIndex disables the shared routing index: every tuple is
// offered to every query reading its stream, as in the pre-index engine.
// Routing is semantics-preserving, so this exists as a debugging escape
// hatch and as the reference arm of the equivalence suites.
func WithoutRouteIndex() Option {
	return func(c *Config) { c.NoRouteIndex = true }
}

// WithoutPlanMerge disables multi-query plan merging: every SEQ query runs
// its own automaton instead of joining a shared-prefix group. Merging is
// semantics-preserving, so this exists as a debugging escape hatch and as
// the reference arm of the merge equivalence suite.
func WithoutPlanMerge() Option {
	return func(c *Config) { c.NoPlanMerge = true }
}

// EngineStats is the engine-wide robustness counter snapshot. The ingest
// boundary balance is
//
//	Ingested = Emitted + DroppedLate + DroppedDup + DeadLettered + PendingReorder
//
// (PendingReorder drains to Emitted on Drain). QuarantinedQueries counts
// queries disabled by panic isolation; their dead-letter records carry
// reason QUERY_PANIC and do not disturb the boundary balance.
type EngineStats struct {
	Ingested           uint64
	Emitted            uint64
	Reordered          uint64
	DroppedLate        uint64
	DroppedDup         uint64
	DeadLettered       uint64
	PendingReorder     int
	QuarantinedQueries int
	Watermark          stream.Timestamp
	// RoutedDeliveries counts (tuple, query) deliveries actually made;
	// SkippedDeliveries counts deliveries the routing index proved
	// unnecessary. Their sum is what a scan-all engine would have performed.
	RoutedDeliveries  uint64
	SkippedDeliveries uint64
	// Speculation gauges (zero unless FAST/MIDDLE queries are registered):
	// SpecPending is live unconfirmed assertions across all speculative
	// queries; the cumulative counters sum their reconcilers; GateClamped
	// and GatePending sum the per-level arrival gates (reorder depth the
	// speculation horizon is absorbing right now).
	SpecPending    int
	SpecAsserted   uint64
	SpecConfirmed  uint64
	SpecRetracted  uint64
	SpecLateFinals uint64
	SpecSuppressed uint64
	GateClamped    uint64
	GatePending    int
}

// EngineStats returns the robustness counters. On a default-configured
// engine (no ingest stage) the boundary counters stay zero and Watermark is
// the engine clock.
func (e *Engine) EngineStats() EngineStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := EngineStats{QuarantinedQueries: e.nquarantined, Watermark: e.now}
	for _, si := range e.streams {
		for i := range si.readers {
			rd := &si.readers[i]
			// A merged-group reader delivers to every member at once; weight
			// its counts by the member count so the totals stay comparable to
			// per-query engines (and to the sum of per-query Stats).
			w := uint64(1)
			if mop, ok := rd.q.op.(*mergedOp); ok {
				w = uint64(len(mop.g.members))
			}
			st.RoutedDeliveries += rd.routed * w
			st.SkippedDeliveries += (si.ntuples - rd.routed) * w
		}
	}
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
	if e.spc != nil {
		for _, sq := range e.spc.qs {
			rs := sq.rec.Stats()
			st.SpecPending += rs.Pending
			st.SpecAsserted += rs.Asserted
			st.SpecConfirmed += rs.Confirmed
			st.SpecRetracted += rs.Retracted
			st.SpecLateFinals += rs.LateFinals
			st.SpecSuppressed += rs.Suppressed
		}
		for _, rep := range e.spc.reps {
			st.GateClamped += rep.gate.Clamped()
			st.GatePending += rep.gate.Pending()
		}
	}
	return st
}

// OnDeadLetter subscribes to the quarantine stream: every late (under
// DEAD_LETTER), malformed, oversized, or query-panic record is delivered to
// fn, synchronously, in ingestion order. fn runs under the engine lock and
// must not call back into the engine.
func (e *Engine) OnDeadLetter(fn func(stream.DeadLetter)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.onDead = append(e.onDead, fn)
}

// dispatchDeadLocked fans one quarantine record out to the subscribers.
func (e *Engine) dispatchDeadLocked(dl stream.DeadLetter) {
	for _, fn := range e.onDead {
		fn(dl)
	}
}

// Watermark returns the completeness frontier: with slack configured, the
// ingest watermark (arrivals at or above it are never late); otherwise the
// engine clock.
func (e *Engine) Watermark() stream.Timestamp {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.ingest != nil {
		if wm := e.ingest.Watermark(); wm > stream.MinTimestamp {
			return wm
		}
	}
	return e.now
}

// Reorders reports whether the engine has an ingest boundary that absorbs
// out-of-order arrivals (WithSlack). Upstream feeders use it to decide
// whether disordered input may be handed over as-is: a cluster node
// advertises this in its hello ack so the feed can ship disorder for the
// node-side boundary (and any CONSISTENCY speculation behind it) to absorb.
func (e *Engine) Reorders() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ingest != nil && e.specSlack > 0
}

// Drain flushes the reorder stage at end of stream: every held-back tuple is
// released in order and the engine clock advances to the high-water mark. A
// no-op on a default-configured engine.
func (e *Engine) Drain() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.ingest == nil {
		return nil
	}
	e.refreshRoutesLocked()
	if e.spc != nil {
		// Gates flush into the shadows first so every assertion that can
		// still be made lands before the strict finals that confirm it.
		e.spc.drainLocked()
	}
	out := e.ingest.Flush(e.ingestScratch[:0])
	err := e.deliverLocked(out)
	e.ingestScratch = out[:0]
	if e.spc != nil {
		e.spc.finishLocked()
		if err == nil {
			err = e.spc.err
		}
	}
	return err
}

// offerLocked feeds one item through the ingest stage and delivers whatever
// the watermark released. The returned error is a lateness rejection (ERROR
// policy) or a downstream processing failure.
func (e *Engine) offerLocked(it stream.Item) error {
	out, lateErr := e.ingest.Offer(it, e.ingestScratch[:0])
	var specErr error
	if e.spc != nil {
		// Advance the speculation gates to the new arrival frontier before
		// the strict path runs, then retire disproven assertions after it —
		// so a final at the watermark confirms its assertion rather than
		// racing the retraction for it.
		specErr = e.spc.tickLocked()
	}
	err := e.deliverLocked(out)
	e.ingestScratch = out[:0]
	if e.spc != nil {
		e.spc.retireLocked(e.ingest.Watermark())
	}
	if err != nil {
		return err
	}
	if lateErr != nil {
		return lateErr
	}
	return specErr
}

// Quarantined reports whether panic isolation disabled the query, and why.
func (q *Query) Quarantined() (bool, error) {
	return q.quarantined, q.qErr
}

// pushBatchQueryLocked delivers a run to a query behind the panic-isolation
// boundary: a panic in plan evaluation quarantines this query — recording
// the run's last tuple (the offending one, for a run of one) and the captured
// stack on the dead-letter stream — while the engine and every other query
// keep running. The rest of the run is lost to the quarantined query only.
func (e *Engine) pushBatchQueryLocked(q *Query, aliases []string, b *stream.Batch) (err error) {
	if q.quarantined {
		return nil
	}
	defer func() {
		if r := recover(); r != nil {
			err = nil
			var t *stream.Tuple
			if len(b.Tuples) > 0 {
				t = b.Tuples[len(b.Tuples)-1]
			}
			e.quarantineQueryLocked(q, t, r)
		}
	}()
	return q.op.pushBatch(aliases, b)
}

// advanceQueryLocked moves one query's clock behind the isolation boundary.
func (e *Engine) advanceQueryLocked(q *Query, ts stream.Timestamp) (err error) {
	if q.quarantined {
		return nil
	}
	defer func() {
		if r := recover(); r != nil {
			err = nil
			e.quarantineQueryLocked(q, nil, r)
		}
	}()
	return q.op.advance(ts)
}

// quarantineQueryLocked disables a panicked query and emits the dead-letter
// record carrying the panic value, the offending tuple, and the stack.
func (e *Engine) quarantineQueryLocked(q *Query, t *stream.Tuple, r interface{}) {
	if mop, ok := q.op.(*mergedOp); ok {
		// A panic inside the shared automaton takes the whole group down:
		// mark the hidden group query (stopping delivery) and quarantine
		// every member, so per-query accounting and dead letters line up
		// with N independent queries all hitting the same panic.
		q.quarantined = true
		q.qErr = fmt.Errorf("esl: merged group quarantined: panic: %v", r)
		for _, mem := range mop.g.members {
			if !mem.ev.q.quarantined {
				e.quarantineQueryLocked(mem.ev.q, t, r)
			}
		}
		return
	}
	q.quarantined = true
	q.qErr = fmt.Errorf("esl: query %s quarantined: panic: %v", q.describe(), r)
	e.nquarantined++
	dl := stream.DeadLetter{
		Reason: stream.DeadQueryPanic,
		Query:  q.describe(),
		TS:     e.now,
		Err:    fmt.Errorf("panic: %v", r),
		Stack:  debug.Stack(),
	}
	if t != nil {
		dl.Tuple = t
		dl.TS = t.TS
		if t.Schema != nil {
			dl.Stream = t.Schema.Name()
		}
	}
	e.dispatchDeadLocked(dl)
}

// describe names the query for diagnostics: its registered name, or its sink
// target, or its position.
func (q *Query) describe() string {
	if q.Name != "" {
		return q.Name
	}
	if q.target != "" {
		return "->" + q.target
	}
	return "(anonymous)"
}
