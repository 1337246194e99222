package stream

// Degenerate-path coverage for the generic fan-in the cluster merge tier
// exposes: single-source mode, a stalled source advancing only by
// watermark keepalives, and equal-timestamp events from different sources.

import "testing"

type finEvent struct {
	src int
	ts  Timestamp
	seq uint64
}

func finLess(a, b finEvent) bool {
	if a.ts != b.ts {
		return a.ts < b.ts
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

func newFinFanIn(n, maxBuffer int, got *[]finEvent) *FanIn[finEvent] {
	return NewFanIn(n, maxBuffer, finLess,
		func(ev finEvent) Timestamp { return ev.ts },
		func(ev finEvent) { *got = append(*got, ev) })
}

// TestFanInSingleSource: with one source the fan-in is a pass-through — its
// own watermark releases everything it offered, in offer order.
func TestFanInSingleSource(t *testing.T) {
	var got []finEvent
	c := newFinFanIn(1, 4096, &got)
	evs := []finEvent{{0, 10, 1}, {0, 10, 2}, {0, 30, 3}}
	c.Offer(0, evs, 30)
	if len(got) != 3 {
		t.Fatalf("single source released %d events, want 3", len(got))
	}
	for i, ev := range got {
		if ev != evs[i] {
			t.Fatalf("event %d = %+v, want %+v (order not preserved)", i, ev, evs[i])
		}
	}
	if c.Pending() != 0 {
		t.Fatalf("pending = %d after full release", c.Pending())
	}
}

// TestFanInStalledSourceKeepalives models a remote node with no matching
// tuples: it sends no events, only watermark keepalives. The busy source's
// output must stay gated until each keepalive arrives, then release exactly
// up to the stalled node's watermark.
func TestFanInStalledSourceKeepalives(t *testing.T) {
	var got []finEvent
	c := newFinFanIn(2, 4096, &got)
	c.Offer(0, []finEvent{{0, 10, 1}, {0, 20, 2}, {0, 30, 3}}, 35)
	if len(got) != 0 {
		t.Fatalf("released %v with the stalled source at MinTimestamp", got)
	}
	c.Offer(1, nil, 20) // keepalive only: no events
	if len(got) != 2 || got[0].ts != 10 || got[1].ts != 20 {
		t.Fatalf("after keepalive wm=20: released %v, want ts 10,20", got)
	}
	c.Offer(1, nil, 25) // keepalive below the next buffered event
	if len(got) != 2 {
		t.Fatalf("keepalive wm=25 over-released: %v", got)
	}
	c.Offer(1, nil, 30)
	if len(got) != 3 || got[2].ts != 30 {
		t.Fatalf("after keepalive wm=30: released %v, want ts 10,20,30", got)
	}
}

// TestFanInEqualTimestampsAcrossSources: rows carrying the same timestamp
// from different sources must release deterministically in the order the
// comparator defines (lower source index first), regardless of offer order.
func TestFanInEqualTimestampsAcrossSources(t *testing.T) {
	var got []finEvent
	c := newFinFanIn(3, 4096, &got)
	// Higher sources offer first — release order must still be by src.
	c.Offer(2, []finEvent{{2, 10, 1}, {2, 10, 2}}, 10)
	c.Offer(1, []finEvent{{1, 10, 1}}, 10)
	c.Offer(0, []finEvent{{0, 10, 1}}, 10)
	if len(got) != 4 {
		t.Fatalf("released %d events, want 4", len(got))
	}
	want := []finEvent{{0, 10, 1}, {1, 10, 1}, {2, 10, 1}, {2, 10, 2}}
	for i, ev := range got {
		if ev != want[i] {
			t.Fatalf("tie-break order: got[%d] = %+v, want %+v (full: %v)", i, ev, want[i], got)
		}
	}
}

// TestFanInLateEventReleasesImmediately: an event below the global
// watermark (a deferred FOLLOWING emission) must not wedge at the heap
// root — it releases on the next offer.
func TestFanInLateEventReleasesImmediately(t *testing.T) {
	var got []finEvent
	c := newFinFanIn(2, 4096, &got)
	c.Offer(0, nil, 100)
	c.Offer(1, nil, 100)
	c.Offer(0, []finEvent{{0, 40, 1}}, 100) // late emission, ts < both watermarks
	if len(got) != 1 || got[0].ts != 40 {
		t.Fatalf("late event not released: %v", got)
	}
}

// TestFanInBufferBound: past maxBuffer the oldest events release even while
// a source's watermark lags.
func TestFanInBufferBound(t *testing.T) {
	var got []finEvent
	c := newFinFanIn(2, 8, &got)
	evs := make([]finEvent, 10)
	for i := range evs {
		evs[i] = finEvent{0, Timestamp(i), uint64(i)}
	}
	c.Offer(0, evs, 100) // source 1 still at MinTimestamp
	if len(got) == 0 {
		t.Fatal("buffer bound did not force release")
	}
	c.FlushAll()
	if len(got) != 10 {
		t.Fatalf("flush released %d total, want 10", len(got))
	}
}

// TestFanInTiesBreakBySourceIndex: less orders events within one source
// only; across sources equal timestamps release the lower source first,
// whatever the events' own sequence numbers say.
func TestFanInTiesBreakBySourceIndex(t *testing.T) {
	var got []finEvent
	seqLess := func(a, b finEvent) bool {
		if a.ts != b.ts {
			return a.ts < b.ts
		}
		return a.seq < b.seq
	}
	c := NewFanIn(2, 4096, seqLess,
		func(ev finEvent) Timestamp { return ev.ts },
		func(ev finEvent) { got = append(got, ev) })
	c.Offer(1, []finEvent{{1, 10, 1}, {1, 10, 2}}, 10)
	c.Offer(0, []finEvent{{0, 10, 7}}, 10)
	want := []finEvent{{0, 10, 7}, {1, 10, 1}, {1, 10, 2}}
	if len(got) != len(want) {
		t.Fatalf("released %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tie-break order: got %v, want %v", got, want)
		}
	}
}
