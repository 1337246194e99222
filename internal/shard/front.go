package shard

// The feed front door both partitioned topologies share. The paper defines
// every operator over one joint, timestamp-ordered tuple history (§3.1),
// with heartbeats driving Active Expiration (§3.1.3). Front keeps that
// history for a partitioned engine: the ingest boundary, the joint-history
// order check, routing by placement, the heartbeats each partition needs,
// and the timestamp-ordered fan-in of the output. Only the transport stays
// with the owner: the sharded Engine hands each flush's runs to worker
// goroutines, the cluster client encodes them as wire frames under credit.

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/stream"
)

// DefaultBatchSize is the pending length at which a front flushes to its
// partitions.
const DefaultBatchSize = 256

// fanInBuffer bounds the events buffered in the output fan-in: past it the
// oldest release even ahead of a lagging partition's watermark (bounded
// memory beats perfect ordering under pathological skew).
const fanInBuffer = 4096

// Door is the feed surface of a partitioned topology. Engine and
// cluster.Client embed it, backed by their Front; embedding the interface
// rather than the Front keeps the transport side off their API.
type Door interface {
	StreamSchema(name string) (*stream.Schema, bool)
	Push(streamName string, ts stream.Timestamp, vals ...stream.Value) error
	PushTuple(streamName string, t *stream.Tuple) error
	Heartbeat(ts stream.Timestamp) error
	Feed(name string, it stream.Item) error
	PushBatch(items []stream.Item) error
	OnDeadLetter(fn func(stream.DeadLetter))
}

// Event is one output on its way through the fan-in: a query row or a
// subscribed tuple, tagged with its registration slot and its partition's
// emission sequence (order at equal timestamps within the partition; across
// partitions, ties release the lower partition first).
type Event struct {
	Slot int
	Row  Row
	Tup  *stream.Tuple
	TS   stream.Timestamp
	Seq  uint64
}

func eventBefore(a, b Event) bool {
	if a.TS != b.TS {
		return a.TS < b.TS
	}
	return a.Seq < b.Seq
}

// outSlot is one output sink: a query's rows or a subscription's tuples.
type outSlot struct {
	row func(Row)
	tup func(*stream.Tuple)
}

// FrontConfig wires a topology's transport into its Front.
type FrontConfig struct {
	Name       string              // error prefix: "shard", "cluster"
	Partitions int                 // worker shards or cluster origins
	BatchSize  int                 // pending length that triggers Flush (0 = DefaultBatchSize)
	Ingest     stream.IngestConfig // the boundary in front of the router; zero = none
	// Lock is the owner's lock: the front door holds it while it admits
	// and flushes, the owner around every other call into the Front.
	Lock      *sync.Mutex
	Resolve   func(name string) (*stream.Schema, bool)
	Partition func(hash uint64) int // a keyed tuple's partition
	// Admit runs the owner's gates on a pushed batch (closed, sealed,
	// journal) and hands the items to offer.
	Admit func(items []stream.Item, offer func([]stream.Item) error) error
	// Flush splits and sends the pending items once BatchSize are buffered.
	Flush func() error
}

// Front is the feed side of a partitioned topology. Its transport-facing
// methods need the owner's lock held, except Output and FlushOutput, which
// the fan-in serializes itself.
type Front struct {
	cfg     FrontConfig
	offerFn func([]stream.Item) error // f.offer, bound once

	routes map[string]Route
	// exactClock: a pinned query is time-sensitive, so partition 0 must
	// observe a heartbeat at every foreign tuple's position (Placement).
	exactClock bool
	// Reorder relaxes the order check: tuples older than the high-water
	// mark pass verbatim, for partitions that run their own reorder
	// boundary. The cluster client sets it from its nodes' hello acks.
	Reorder bool

	pending []stream.Item
	parts   []int // partition of each pending tuple; heartbeats: -1
	lastTS  stream.Timestamp
	rr      int // round-robin cursor for free streams

	// Dead letters (boundary records; replica query panics from worker
	// goroutines) fan into onDead under deadMu.
	ingest        *stream.Ingest
	ingestScratch []stream.Item
	deadMu        sync.Mutex
	onDead        []func(stream.DeadLetter)

	slots []outSlot
	fanin *stream.FanIn[Event]
}

// NewFront builds the feed side of a topology.
func NewFront(cfg FrontConfig) *Front {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = DefaultBatchSize
	}
	f := &Front{cfg: cfg, routes: map[string]Route{}, lastTS: stream.MinTimestamp}
	f.offerFn = f.offer
	if !cfg.Ingest.IsZero() {
		cfg.Ingest.OnDead = f.deadLetter
		f.ingest = stream.NewIngest(cfg.Ingest)
	}
	f.fanin = stream.NewFanIn(cfg.Partitions, fanInBuffer, eventBefore,
		func(ev Event) stream.Timestamp { return ev.TS }, f.deliver)
	return f
}

// OnDeadLetter subscribes to the quarantine stream. fn may be called from
// worker goroutines; calls are serialized.
func (f *Front) OnDeadLetter(fn func(stream.DeadLetter)) {
	f.deadMu.Lock()
	defer f.deadMu.Unlock()
	f.onDead = append(f.onDead, fn)
}

func (f *Front) deadLetter(dl stream.DeadLetter) {
	f.deadMu.Lock()
	defer f.deadMu.Unlock()
	for _, fn := range f.onDead {
		fn(dl)
	}
}

// ---- the front door ---------------------------------------------------------

// StreamSchema returns a declared stream's schema.
func (f *Front) StreamSchema(name string) (*stream.Schema, bool) { return f.cfg.Resolve(name) }

// Push appends one tuple to a source stream. Values that do not fit the
// stream's schema are a malformed arrival: behind an ingest boundary they
// are dead-lettered as DeadMalformed and Push returns nil, as on the serial
// engine; without one Push returns the error.
func (f *Front) Push(streamName string, ts stream.Timestamp, vals ...stream.Value) error {
	schema, ok := f.cfg.Resolve(streamName)
	if !ok {
		return fmt.Errorf("%s: unknown stream %s", f.cfg.Name, streamName)
	}
	t, err := stream.NewTuple(schema, ts, vals...)
	if err != nil {
		f.cfg.Lock.Lock()
		defer f.cfg.Lock.Unlock()
		if f.ingest == nil {
			return err
		}
		f.ingest.DeadLetterNow(stream.DeadLetter{Reason: stream.DeadMalformed, Stream: schema.Name(), TS: ts, Err: err})
		return nil
	}
	return f.PushBatch([]stream.Item{stream.Of(t)})
}

// PushTuple appends a pre-built tuple; its schema must name the stream,
// since routing dispatches by schema name.
func (f *Front) PushTuple(streamName string, t *stream.Tuple) error {
	if !strings.EqualFold(t.Schema.Name(), streamName) {
		return fmt.Errorf("%s: tuple schema %q does not match stream %q (partitioned routing dispatches by schema name)",
			f.cfg.Name, t.Schema.Name(), streamName)
	}
	return f.PushBatch([]stream.Item{stream.Of(t)})
}

// Heartbeat advances event time on every partition (punctuation).
func (f *Front) Heartbeat(ts stream.Timestamp) error {
	return f.PushBatch([]stream.Item{stream.Heartbeat(ts)})
}

// Feed connects a stream.Merger emission.
func (f *Front) Feed(name string, it stream.Item) error {
	if it.IsHeartbeat() {
		return f.Heartbeat(it.TS)
	}
	return f.PushTuple(name, it.Tuple)
}

// PushBatch admits a run of merged items — tuples and heartbeats in
// joint-history (non-decreasing timestamp) order — flushing whenever
// BatchSize items are pending. Results become observable after the flush
// that carries them; the owner's Flush or Drain makes a deterministic cut.
func (f *Front) PushBatch(items []stream.Item) error {
	f.cfg.Lock.Lock()
	defer f.cfg.Lock.Unlock()
	if err := f.cfg.Admit(items, f.offerFn); err != nil {
		return err
	}
	return f.flushIfFull()
}

// flushIfFull flushes once BatchSize items are pending.
func (f *Front) flushIfFull() error {
	if len(f.pending) < f.cfg.BatchSize {
		return nil
	}
	return f.cfg.Flush()
}

// offer takes items one at a time through the ingest boundary when one is
// configured, else straight to the pending buffer. Either way a tuple of an
// undeclared stream is rejected before it is held anywhere.
func (f *Front) offer(items []stream.Item) error {
	if f.ingest == nil {
		return f.enqueue(items)
	}
	for _, it := range items {
		if !it.IsHeartbeat() {
			if _, err := f.route(it.Tuple); err != nil {
				return err
			}
		}
		out, lateErr := f.ingest.Offer(it, f.ingestScratch[:0])
		if err := f.release(out); err != nil {
			return err
		}
		if lateErr != nil {
			return lateErr
		}
	}
	return nil
}

// release enqueues what the ingest boundary let go and keeps its buffer.
func (f *Front) release(out []stream.Item) error {
	f.ingestScratch = out[:0]
	return f.enqueue(out)
}

// enqueue appends an ordered run to the pending buffer, fixing each tuple's
// partition from its stream's route. A tuple must belong to a declared
// stream and, unless Reorder is set, must not precede the high-water mark:
// the ingest boundary releases in order, direct input must arrive merged.
func (f *Front) enqueue(items []stream.Item) error {
	for _, it := range items {
		p := -1 // heartbeat: every partition
		if !it.IsHeartbeat() {
			rt, err := f.route(it.Tuple)
			if err != nil {
				return err
			}
			if it.TS < f.lastTS && !f.Reorder {
				return fmt.Errorf("%s: out-of-order arrival on %s: %s is before %s (merge concurrent sources with stream.Merger, or enable slack with esl.WithSlack)",
					f.cfg.Name, it.Tuple.Schema.Name(), it.TS, f.lastTS)
			}
			switch p = 0; rt.Mode {
			case RouteKeyed:
				p = f.cfg.Partition(it.Tuple.Get(rt.KeyPos).Hash())
			case RouteFree:
				f.rr++
				p = f.rr % f.cfg.Partitions
			}
		}
		if it.TS > f.lastTS {
			f.lastTS = it.TS
		}
		f.pending = append(f.pending, it)
		f.parts = append(f.parts, p)
	}
	return nil
}

// route finds a tuple's stream route; an undeclared stream has none.
func (f *Front) route(t *stream.Tuple) (Route, error) {
	rt, ok := f.routes[strings.ToLower(t.Schema.Name())]
	if !ok {
		return rt, fmt.Errorf("%s: unknown stream %s", f.cfg.Name, t.Schema.Name())
	}
	return rt, nil
}

// ---- transport side ---------------------------------------------------------

// Place installs a placement's stream routes and exact-clock flag.
func (f *Front) Place(p Placement) {
	f.routes = p.Routes
	f.exactClock = p.ExactClock
}

// FlushIngest releases every tuple the ingest boundary still holds (end of
// stream: the frontier has arrived) into the pending buffer.
func (f *Front) FlushIngest() error {
	if f.ingest == nil {
		return nil
	}
	return f.release(f.ingest.Flush(f.ingestScratch[:0]))
}

// Split consumes the pending buffer into per-partition runs, replacing
// runs[p] and reusing its capacity: the caller owns the runs and may pass
// the same ones again once sent. Heartbeats reach every partition. When
// partition 0's clock must be exact it also gets a beat at every foreign
// tuple's position, so the home of all pinned queries fires deferred
// windows and exception timers where the serial engine would; otherwise
// those beats coalesce into the trailing high-water beat, enough to evict
// windows, restamp derived tuples and advance the fan-in watermark.
// keepalive gives every partition that beat; without it a partition whose
// own tuples advanced its clock goes without.
func (f *Front) Split(runs [][]stream.Item, keepalive bool) {
	for s := range runs {
		runs[s] = runs[s][:0]
	}
	if len(f.pending) == 0 {
		return
	}
	maxTS := stream.MinTimestamp
	for i, it := range f.pending {
		if it.TS > maxTS {
			maxTS = it.TS
		}
		p := f.parts[i]
		if p < 0 {
			for s := range runs {
				runs[s] = appendBeat(runs[s], it.TS)
			}
			continue
		}
		runs[p] = append(runs[p], it)
		if p != 0 && f.exactClock {
			runs[0] = appendBeat(runs[0], it.TS)
		}
	}
	f.pending, f.parts = f.pending[:0], f.parts[:0]
	for s := range runs {
		if s == 0 && f.exactClock {
			continue // already carries per-tuple beats through maxTS
		}
		if !keepalive && len(runs[s]) > 0 {
			continue // its own tuples advance this partition's clock
		}
		runs[s] = appendBeat(runs[s], maxTS)
	}
}

// appendBeat appends a heartbeat unless the run already ends at ts.
func appendBeat(run []stream.Item, ts stream.Timestamp) []stream.Item {
	if n := len(run); n > 0 && run[n-1].TS >= ts {
		return run
	}
	return append(run, stream.Heartbeat(ts))
}

// AddSlot registers an output sink and returns its slot index: onRow
// receives a query's merged rows, onTup a subscription's merged tuples.
func (f *Front) AddSlot(onRow func(Row), onTup func(*stream.Tuple)) int {
	f.slots = append(f.slots, outSlot{row: onRow, tup: onTup})
	return len(f.slots) - 1
}

// Output offers one partition's events and its watermark (the event time
// it has fully processed) to the fan-in, which delivers what the
// watermarks release. No events is a pure watermark advance.
func (f *Front) Output(src int, events []Event, wm stream.Timestamp) {
	f.fanin.Offer(src, events, wm)
}

// FlushOutput releases every buffered event in merged order.
func (f *Front) FlushOutput() { f.fanin.FlushAll() }

// deliver hands one merged event to its slot's callback.
func (f *Front) deliver(ev Event) {
	if ev.Slot >= len(f.slots) {
		return
	}
	switch s := f.slots[ev.Slot]; {
	case ev.Tup != nil && s.tup != nil:
		s.tup(ev.Tup)
	case ev.Tup == nil && s.row != nil:
		s.row(ev.Row)
	}
}
