package main

import (
	"sort"
	"sync"
	"time"

	"repro/internal/esl"
	"repro/internal/stream"
)

// rowRec is one delivered row as the sink logged it.
type rowRec struct {
	hash uint64
	ts   stream.Timestamp
	wall int64 // ns since the phase clock's origin; 0 when not timed
	q    uint16
	sign int8 // +1 assertion or final, -1 retraction
	pol  int8 // spec.Polarity as delivered
}

// sink is the row callback every query registers. It only logs — hashing,
// ordering and reference checks run after the phase, off the clock — so the
// engine's synchronous callbacks stay cheap. Sharded and clustered targets
// deliver from worker goroutines, hence the mutex.
type sink struct {
	mu    sync.Mutex
	rows  []rowRec
	timed bool
	t0    time.Time
	// cbNs accumulates time spent inside the callback (traced runs only);
	// the feed subtracts it from the enclosing push span.
	trace bool
	cbNs  int64
	// fault corrupts delivery for -selfcheck: the checker must notice.
	fault faultKind
	seen  int
	held  *rowRec
}

type faultKind int

const (
	faultNone faultKind = iota
	faultDrop
	faultDup
	faultSwap
)

// faultAt is the delivery ordinal the selfcheck fault hits.
const faultAt = 100

func newSink(capacity int, timed bool) *sink {
	return &sink{rows: make([]rowRec, 0, capacity), timed: timed}
}

func (s *sink) callback(qi int) func(esl.Row) {
	return func(r esl.Row) {
		var t0 time.Time
		if s.trace {
			t0 = time.Now()
		}
		pol, _, _ := esl.RecordTags(r)
		rec := rowRec{hash: hashVals(r.Vals), ts: r.TS, q: uint16(qi), sign: int8(pol.Sign()), pol: int8(pol)}
		s.mu.Lock()
		if s.timed {
			rec.wall = time.Since(s.t0).Nanoseconds()
		}
		s.deliver(rec)
		if s.trace {
			s.cbNs += time.Since(t0).Nanoseconds()
		}
		s.mu.Unlock()
	}
}

func (s *sink) deliver(rec rowRec) {
	s.seen++
	if s.fault != faultNone && s.seen >= faultAt && int(rec.q) == 0 {
		switch s.fault {
		case faultDrop:
			s.fault = faultNone
			return
		case faultDup:
			s.fault = faultNone
			s.rows = append(s.rows, rec)
		case faultSwap:
			// Hold one row of query 0 back and release it after the next
			// one with a later timestamp: two rows reordered.
			if s.held == nil {
				held := rec
				s.held = &held
				return
			}
			if rec.ts > s.held.ts {
				s.rows = append(s.rows, rec, *s.held)
				s.held, s.fault = nil, faultNone
				return
			}
		}
	}
	s.rows = append(s.rows, rec)
}

// takeCb returns and clears the callback time accumulated since the last
// call; the caller holds no engine call open, so no lock contention matters.
func (s *sink) takeCb() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	ns := s.cbNs
	s.cbNs = 0
	return ns
}

// verdict is the outcome of checking one phase's rows against the reference.
type verdict struct {
	expected   int
	delivered  int
	missing    int
	unexpected int
	outOfOrder int
	// rowHash is an order-independent digest of the folded multiset, for
	// cross-topology and cross-run equality.
	rowHash  uint64
	perQuery []queryVerdict
}

type queryVerdict struct {
	name                                      string
	expected, missing, unexpected, outOfOrder int
}

// check folds the delivered rows per query (assertions and finals add,
// retractions cancel) and compares the result with the reference multiset.
// Rows of one query must also arrive in non-decreasing timestamp order:
// the serial engine emits them so, and the shard combiner and cluster
// fan-in exist to preserve it. Queries marked unordered are exempt.
func (s *sink) check(in *input, expect map[string]rowSet) verdict {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := verdict{delivered: len(s.rows)}
	got := make([]map[uint64]int, len(in.queries))
	last := make([]stream.Timestamp, len(in.queries))
	ooo := make([]int, len(in.queries))
	for i := range got {
		got[i] = map[uint64]int{}
		last[i] = stream.MinTimestamp
	}
	for _, r := range s.rows {
		got[r.q][r.hash] += int(r.sign)
		// Speculative records are ordered by arrival, not event time.
		if r.pol == 0 && !in.queries[r.q].unordered {
			if r.ts < last[r.q] {
				ooo[r.q]++
			}
			last[r.q] = r.ts
		}
	}
	for qi, q := range in.queries {
		want := expect[q.name]
		qv := queryVerdict{name: q.name, expected: want.total(), outOfOrder: ooo[qi]}
		for h, c := range want {
			if g := got[qi][h]; g < c {
				qv.missing += c - g
			}
		}
		for h, g := range got[qi] {
			if c := want[h]; g > c {
				qv.unexpected += g - c
			} else if g < 0 {
				qv.unexpected += -g // a retraction that cancelled nothing
			}
			if g != 0 {
				v.rowHash += mix64(h^uint64(qi+1)*0x9e3779b97f4a7c15) * uint64(g)
			}
		}
		v.expected += qv.expected
		v.missing += qv.missing
		v.unexpected += qv.unexpected
		v.outOfOrder += qv.outOfOrder
		v.perQuery = append(v.perQuery, qv)
	}
	return v
}

func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// releaseIndex is the position of the input item that first brought the
// event-time frontier up to a row's release point: its timestamp plus the
// query's hold.
func releaseIndex(in *input, r rowRec) int {
	rel := r.ts.Add(in.queries[r.q].hold)
	i := sort.Search(in.n, func(i int) bool { return in.frontier[i] >= rel })
	if i == in.n {
		i = in.n - 1
	}
	return i
}

// latencies returns, per delivered final or assertion, callback time minus
// the due time of the input batch that first brought the event-time
// frontier up to the row's release point (its timestamp plus the query's
// hold). due[b] is batch b's scheduled instant on the phase clock.
func (s *sink) latencies(in *input, due []int64, batch int) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]float64, 0, len(s.rows))
	for _, r := range s.rows {
		if r.sign < 0 {
			continue
		}
		out = append(out, float64(r.wall-due[releaseIndex(in, r)/batch])/1e6)
	}
	return out
}
