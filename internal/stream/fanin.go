package stream

import "sync"

// FanIn is the bounded fan-in stage that re-merges per-source event streams
// into one timestamp-ordered delivery sequence: the output side of
// shard.Front, whose sources are worker shards or remote engine nodes. Each
// source owns a min-heap of pending events, and events release once their
// timestamp is covered by every source's watermark — the event time that
// source has fully processed — so a slower source cannot be overtaken.
//
// Deferred emissions (FOLLOWING windows) legitimately carry timestamps below
// the watermark; they sit at their heap's root and release immediately,
// exactly as the serial engine emits them late.
type FanIn[E any] struct {
	// dmu serializes offer+deliver so events from two sources finishing
	// concurrently cannot interleave out of merged order. Lock order is
	// always dmu before mu.
	dmu sync.Mutex
	mu  sync.Mutex

	queues  []*Heap[E]
	wm      []Timestamp
	pending int
	// maxBuffer bounds total buffered events: past it the oldest events
	// release even ahead of a lagging source's watermark (bounded memory
	// beats perfect ordering under pathological skew).
	maxBuffer int
	less      func(a, b E) bool
	at        func(E) Timestamp
	deliver   func(E)
	// rel is the release buffer, reused across offers: it is filled and
	// delivered under dmu, so no other collect can overwrite it mid-delivery.
	rel []E
}

// NewFanIn builds a fan-in over n sources. less orders one source's events
// ((timestamp, emission sequence) in practice); across sources events
// release by (at(e), source index). at also gates release on watermarks, and
// deliver receives released events — serialized, on whichever goroutine
// offered the releasing batch.
func NewFanIn[E any](n, maxBuffer int, less func(a, b E) bool, at func(E) Timestamp, deliver func(E)) *FanIn[E] {
	c := &FanIn[E]{
		queues:    make([]*Heap[E], n),
		wm:        make([]Timestamp, n),
		maxBuffer: maxBuffer,
		less:      less,
		at:        at,
		deliver:   deliver,
	}
	for i := range c.queues {
		c.queues[i] = NewHeap(less)
		c.wm[i] = MinTimestamp
	}
	return c
}

// Offer ingests one source's batch output and advances its watermark, then
// delivers every event the new watermarks release. An empty events slice is
// a pure watermark advance (a keepalive from a source with nothing to say),
// which may still release other sources' buffered events.
func (c *FanIn[E]) Offer(src int, events []E, wm Timestamp) {
	c.dmu.Lock()
	defer c.dmu.Unlock()
	c.mu.Lock()
	for _, ev := range events {
		c.queues[src].Push(ev)
	}
	c.pending += len(events)
	if wm > c.wm[src] {
		c.wm[src] = wm
	}
	rel := c.collectLocked(false)
	c.mu.Unlock()
	for _, ev := range rel {
		c.deliver(ev)
	}
	clear(rel)
}

// FlushAll releases every buffered event in merged order (used at Drain,
// when all sources are quiescent).
func (c *FanIn[E]) FlushAll() {
	c.dmu.Lock()
	defer c.dmu.Unlock()
	c.mu.Lock()
	rel := c.collectLocked(true)
	c.mu.Unlock()
	for _, ev := range rel {
		c.deliver(ev)
	}
	clear(rel)
}

// Pending reports how many events are buffered awaiting release.
func (c *FanIn[E]) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pending
}

// collectLocked pops releasable events in merged order. The source count is
// small, so the cross-source minimum is a linear scan by (timestamp, source
// index); per-source order comes from the heaps.
func (c *FanIn[E]) collectLocked(all bool) []E {
	minWM := MaxTimestamp
	for _, w := range c.wm {
		if w < minWM {
			minWM = w
		}
	}
	rel := c.rel[:0]
	for {
		best := -1
		for s, q := range c.queues {
			if q.Len() == 0 {
				continue
			}
			if best == -1 || c.at(q.Min()) < c.at(c.queues[best].Min()) {
				best = s // strict less keeps the lower source index on ties
			}
		}
		if best == -1 {
			break
		}
		head := c.queues[best].Min()
		if !all && c.at(head) > minWM && c.pending <= c.maxBuffer {
			break
		}
		rel = append(rel, c.queues[best].Pop())
		c.pending--
	}
	c.rel = rel
	return rel
}
