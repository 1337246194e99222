package core

import (
	"container/heap"
	"fmt"
	"slices"
	"time"

	"repro/internal/snapshot"
	"repro/internal/stream"
)

// engine is the mode-specific matching state for one partition.
type engine interface {
	// push offers a tuple that qualifies for the given step indexes
	// (filters already applied; descending processing order is the
	// engine's responsibility) and returns completed matches. mask is the
	// same step set as a bitmask (bit i set ⇔ i ∈ steps), precomputed so
	// engines test membership in constant time. An error reports a broken
	// ordering invariant (window.ErrOutOfOrder) — an upstream engine bug,
	// never a data condition.
	push(steps []int, mask uint64, t *stream.Tuple) ([]*Match, error)
	// advance moves event time forward (heartbeats), evicting state whose
	// window can no longer be satisfied and firing an exception expiry due
	// by ts.
	advance(ts stream.Timestamp)
	// stateSize counts retained tuples, for benchmarks and tests of the
	// paper's state-bounding claims.
	stateSize() int
	// runCount gauges pending partial matches (runs or RECENT chains).
	runCount() int
	// save/load serialize the engine's mutable state (see snapshot.go).
	save(enc *snapshot.Encoder)
	load(dec *snapshot.Decoder) error
	// rekey readies an empty engine, recycled from a reclaimed partition,
	// to match under another key.
	rekey(key stream.Value)
}

// Matcher evaluates one SEQ-family pattern incrementally. Feed it the
// merged joint tuple history via Push (tagging each tuple with the
// alias(es) it arrives under) and heartbeats via Advance; it returns
// completed matches. When the pattern is partitioned (Step.Key set), state
// is kept per key.
//
// Every partition runs one engine of the matcher's kind: runEngine (star
// patterns and CONSECUTIVE), chainEngine (plain UNRESTRICTED, RECENT and
// CHRONICLE), or — for a matcher built by NewExceptionMatcher — exEngine,
// the EXCEPTION_SEQ automaton, whose exceptions collect in the matcher's
// buffer until TakeExceptions.
//
// Partitions are evicted on touch only: pushSteps advances the partition a
// tuple reaches to the tuple's horizon before the push. The matcher's one
// time queue, reclaim, holds one entry per partition, due when the
// partition needs the clock without a tuple: an exception partition at its
// armed expiry (Active Expiration), any partition once its state has
// surely expired, when it is freed. Advance and every push pop what is due
// by their horizon and visit no other partition.
type Matcher struct {
	def    Def
	single engine
	parts  map[uint64]*partition // key hash -> partitions (collision chain)
	nparts int

	// reclaim orders the live partitions by deadline; bound is how long
	// after its last touch a partition's state is surely dead (zero:
	// never). spare holds the shells of reclaimed partitions for reuse by
	// fresh keys. swept is the highest Advance time: StateSize, RunCount
	// and Save first advance every partition to it, so they read what
	// eviction at every Advance would have left.
	reclaim partQueue
	bound   time.Duration
	spare   []*partition
	swept   stream.Timestamp

	// exceptions selects exEngine partitions; arms numbers their expiries
	// as they are armed, and exs holds the exceptions raised since the
	// last TakeExceptions.
	exceptions bool
	arms       uint64
	exs        []*Exception

	// resolved caches Resolve by alias content, up to maxResolved sets;
	// pushRes is the scratch resolution Push fills instead.
	resolved []*Resolved
	pushRes  Resolved

	// clock is the event time the matcher has observed — pushed tuples and
	// Advance calls alike. Every push first advances to the clock as it
	// stood BEFORE the tuple (raised to the caller's horizon, see
	// PushBatchAt): the partition the tuple touches evicts to it and the
	// queue entries due by it pop, firing exception expiries. That
	// reproduces, exactly, the serial interleaving "push tuple, then advance
	// to its timestamp" that per-item ingestion performs, no matter how
	// pushes are batched. The ordering is observable: with star steps,
	// eviction decides whether a step-0 tuple is absorbed into a stale open
	// run or starts a fresh one.
	clock stream.Timestamp

	// Scratch storage reused across pushes so the steady-state matching
	// path allocates nothing. A Matcher is not safe for concurrent use (the
	// engine serializes access), so plain fields suffice.
	stepScratch []int
	sameScratch []int
	outScratch  []BatchMatch
}

type partition struct {
	key  stream.Value
	hash uint64
	next *partition // same-hash collision chain
	eng  engine
	// last is the newest tuple's time, the one field a SEQ push writes. due
	// and seq are the partition's reclaim queue key, at or before its
	// deadline; idx is its position in the queue.
	last, due stream.Timestamp
	seq       uint64
	idx       int
}

// sparePartitions caps the reclaimed shells kept for reuse, so a burst of
// reclaims cannot pin memory forever.
const sparePartitions = 1024

// NewMatcher validates the pattern and builds a matcher.
func NewMatcher(def Def) (*Matcher, error) {
	if err := def.Validate(); err != nil {
		return nil, err
	}
	return newMatcher(def, false), nil
}

func newMatcher(def Def, exceptions bool) *Matcher {
	m := &Matcher{def: def, exceptions: exceptions, swept: stream.MinTimestamp}
	m.def.hz = deriveHorizon(&m.def)
	if def.Partitioned() {
		m.parts = make(map[uint64]*partition)
		m.bound = reclaimBound(&m.def)
	} else {
		m.single = m.newEngine(stream.Null, nil)
	}
	return m
}

// MustMatcher is NewMatcher that panics on error, for tests and examples.
func MustMatcher(def Def) *Matcher {
	m, err := NewMatcher(def)
	if err != nil {
		panic(err)
	}
	return m
}

// newEngine picks the implementation for partition p (nil when the
// matcher is unpartitioned): exception matchers run the exception
// automaton; star patterns and CONSECUTIVE mode need the run engine; plain
// sequences in the other modes use the cheaper chain engine.
func (m *Matcher) newEngine(key stream.Value, p *partition) engine {
	switch {
	case m.exceptions:
		return &exEngine{m: m, p: p, key: key}
	case m.def.Mode == ModeConsecutive || hasStar(&m.def):
		return newRunEngine(&m.def, key)
	default:
		return newChainEngine(&m.def, key)
	}
}

// reclaimBound is how long after its newest tuple a partition's state is
// surely all evicted: ExpireAfter idles out every partial, and a window
// that cuts every step (hz.cutFrom == 0) kills every tuple span after it.
// The smaller applies; zero means neither holds and the partition is never
// reclaimed.
func reclaimBound(d *Def) time.Duration {
	b := d.ExpireAfter
	if d.Window != nil && d.hz.cutFrom == 0 && (b == 0 || d.hz.span < b) {
		b = d.hz.span
	}
	return b
}

func hasStar(def *Def) bool {
	for _, s := range def.Steps {
		if s.Star {
			return true
		}
	}
	return false
}

// Def returns the pattern the matcher was built with.
func (m *Matcher) Def() *Def { return &m.def }

// Push offers one tuple of the joint history under the given aliases (the
// aliases of the pattern steps whose source stream produced the tuple; a
// stream aliased twice yields both). It returns completed matches in
// deterministic order.
func (m *Matcher) Push(t *stream.Tuple, aliases ...string) ([]*Match, error) {
	if len(aliases) == 0 {
		return nil, fmt.Errorf("core: Push without aliases")
	}
	m.pushRes.resolve(&m.def, aliases)
	return m.PushResolved(&m.pushRes, t)
}

// Resolved is a precomputed alias→step resolution: the candidate step
// indexes, in descending order (a tuple acting as a later step must see the
// pre-arrival state of earlier steps), for tuples arriving under a fixed
// alias set. Per-tuple step filters still apply at push time. It is
// immutable once built.
type Resolved struct {
	aliases []string
	cands   []int
}

// maxResolved bounds Resolve's cache: a caller cycling through more alias
// sets than this gets a fresh resolution for each set beyond it.
const maxResolved = 64

// Resolve returns the candidate steps for an alias set. Resolutions are
// cached by alias content, so the same set always yields the same
// *Resolved and repeat calls allocate nothing.
func (m *Matcher) Resolve(aliases ...string) *Resolved {
	for _, r := range m.resolved {
		if slices.Equal(r.aliases, aliases) {
			return r
		}
	}
	r := &Resolved{aliases: slices.Clone(aliases)}
	r.resolve(&m.def, aliases)
	if len(m.resolved) < maxResolved {
		m.resolved = append(m.resolved, r)
	}
	return r
}

// resolve refills r's candidates for aliases, reusing its storage.
func (r *Resolved) resolve(def *Def, aliases []string) {
	r.cands = r.cands[:0]
	for i := len(def.Steps) - 1; i >= 0; i-- {
		for _, a := range aliases {
			if def.Steps[i].Alias == a {
				r.cands = append(r.cands, i)
			}
		}
	}
}

// Steps reports how many candidate steps the resolution covers.
func (r *Resolved) Steps() int { return len(r.cands) }

// PushResolved is Push with the alias resolution precomputed; the
// steady-state path allocates nothing.
func (m *Matcher) PushResolved(r *Resolved, t *stream.Tuple) ([]*Match, error) {
	return m.pushAt(r, t, m.observe(t.TS))
}

// pushAt pushes t after advancing to its horizon pre: what is due by pre
// runs first (runDue), and pushSteps evicts the partitions t touches to
// pre.
func (m *Matcher) pushAt(r *Resolved, t *stream.Tuple, pre stream.Timestamp) ([]*Match, error) {
	m.runDue(pre)
	steps, mask := m.filterSteps(r, t, m.stepScratch[:0])
	m.stepScratch = steps
	// A tuple with no qualifying steps is invisible to the pattern:
	// pushSteps skips it. Without that, CONSECUTIVE would treat it as a
	// visible non-extending arrival and break the active run.
	return m.pushSteps(steps, mask, t, pre)
}

// filterSteps applies the per-tuple step filters to a resolution, appending
// the qualifying indexes to dst and folding them into a bitmask.
func (m *Matcher) filterSteps(r *Resolved, t *stream.Tuple, dst []int) ([]int, uint64) {
	var mask uint64
	for _, i := range r.cands {
		st := &m.def.Steps[i]
		if st.Filter != nil && !st.Filter(t) {
			continue
		}
		dst = append(dst, i)
		mask |= 1 << uint(i)
	}
	return dst, mask
}

// pushSteps feeds one tuple with its qualifying steps to the partition
// engines they key it to, each first evicted to the horizon pre (runDue
// has advanced an unpartitioned engine already). It reorders steps in
// place.
func (m *Matcher) pushSteps(steps []int, mask uint64, t *stream.Tuple, pre stream.Timestamp) ([]*Match, error) {
	if len(steps) == 0 {
		return nil, nil
	}
	if !m.def.Partitioned() {
		return m.single.push(steps, mask, t)
	}
	// Partitioned: split off the steps whose key for t equals rem[0]'s to
	// the tail rem[n:] (order within both halves preserved) and push them
	// as one group, until no step remains.
	var out []*Match
	for rem := steps; len(rem) > 0; {
		key := m.def.Steps[rem[0]].Key(t)
		same := append(m.sameScratch[:0], rem[0])
		sameMask, n := uint64(1)<<uint(rem[0]), 0
		for _, si := range rem[1:] {
			if m.def.Steps[si].Key(t).Equal(key) {
				same = append(same, si)
				sameMask |= 1 << uint(si)
			} else {
				rem[n] = si
				n++
			}
		}
		copy(rem[n:], same)
		m.sameScratch = same
		p := m.partitionFor(key)
		p.last = t.TS
		p.eng.advance(pre)
		matches, err := p.eng.push(rem[n:], sameMask, t)
		if out == nil {
			out = matches // engines return fresh slices: spare the copy
		} else {
			out = append(out, matches...)
		}
		if err != nil {
			return out, err
		}
		rem = rem[:n]
	}
	return out, nil
}

// observe folds a pushed tuple's timestamp into the matcher clock and
// returns the clock as it stood before the tuple — the eviction horizon
// serial push-then-advance ingestion would have applied by now.
func (m *Matcher) observe(ts stream.Timestamp) stream.Timestamp {
	pre := m.clock
	if ts > m.clock {
		m.clock = ts
	}
	return pre
}

// BatchMatch is one completed match from PushBatchAt, tagged with the
// index of the tuple in the pushed run that triggered it.
type BatchMatch struct {
	Index int
	Match *Match
}

// PushBatchAt feeds a run of in-order tuples under one resolution, tuple by
// tuple, exactly as PushResolved would. prev, when non-nil, is parallel to
// run and prev[i] holds the timestamp of the tuple that immediately
// preceded run[i] in the full joint history: callers that drop tuples from
// a run before pushing (guarded routing) pass it so each tuple's horizon —
// the clock before it, raised to prev[i] — still tracks every arrival, as
// serial push-then-advance ingestion of the full history would. Matches
// come back in emission order; exceptions wait for TakeExceptions. The
// returned slice is reused by the next PushBatchAt call.
func (m *Matcher) PushBatchAt(r *Resolved, run []*stream.Tuple, prev []stream.Timestamp) ([]BatchMatch, error) {
	clear(m.outScratch)
	out := m.outScratch[:0]
	var err error
	for i, t := range run {
		pre := m.observe(t.TS)
		if len(prev) > 0 && prev[i] > pre {
			pre = prev[i]
		}
		var matches []*Match
		matches, err = m.pushAt(r, t, pre)
		for _, match := range matches {
			out = append(out, BatchMatch{Index: i, Match: match})
		}
		if err != nil {
			break
		}
	}
	m.outScratch = out
	return out, err
}

// partitionFor finds key's partition, creating it — from a reclaimed
// shell when there is one — and queueing it if it is new.
func (m *Matcher) partitionFor(key stream.Value) *partition {
	h := key.Hash()
	var tail *partition
	for p := m.parts[h]; p != nil; p = p.next {
		if p.key.Equal(key) {
			return p
		}
		tail = p
	}
	var p *partition
	if n := len(m.spare); n > 0 {
		p = m.spare[n-1]
		m.spare[n-1] = nil
		m.spare = m.spare[:n-1]
		p.key, p.hash, p.next = key, h, nil
		p.eng.rekey(key)
	} else {
		p = &partition{key: key, hash: h}
		p.eng = m.newEngine(key, p)
	}
	if tail == nil {
		m.parts[h] = p
	} else {
		tail.next = p
	}
	m.nparts++
	p.last = m.clock
	p.due, p.seq = m.deadline(p)
	heap.Push(&m.reclaim, p)
	return p
}

// lookup finds key's partition without creating it.
func (m *Matcher) lookup(key stream.Value) *partition {
	for p := m.parts[key.Hash()]; p != nil; p = p.next {
		if p.key.Equal(key) {
			return p
		}
	}
	return nil
}

// eachPartition visits every live partition.
func (m *Matcher) eachPartition(fn func(*partition)) {
	for _, p := range m.parts {
		for ; p != nil; p = p.next {
			fn(p)
		}
	}
}

// deadline is the last instant at which p needs nothing from the clock,
// with the ordinal that orders same-instant deadlines. An exception run
// is due just before its armed expiry and never while it waits for its
// window's anchor (exEngine.due). Otherwise the partition is empty once
// advanced past its last touch plus bound — eviction at now drops what is
// older than now − bound — or never when bound is zero.
func (m *Matcher) deadline(p *partition) (stream.Timestamp, uint64) {
	if x, ok := p.eng.(*exEngine); ok && x.run != nil {
		return x.due()
	}
	if m.bound == 0 {
		return stream.MaxTimestamp, 0
	}
	return p.last.Add(m.bound), 0
}

// runDue advances to ts what cannot wait for a touch: the unpartitioned
// engine, or the partitions whose queue entries are due before ts. An
// entry queued ahead of its partition's deadline (the partition was
// touched since) moves to that deadline. A partition due on time is
// advanced to ts, which fires an armed expiry, and, then empty and past
// its deadline, leaves the map for the spare shells.
func (m *Matcher) runDue(ts stream.Timestamp) {
	if m.single != nil {
		m.single.advance(ts)
		return
	}
	for len(m.reclaim) > 0 {
		p := m.reclaim[0]
		if p.due >= ts {
			return
		}
		due, seq := m.deadline(p)
		if due < ts {
			p.eng.advance(ts)
			if due, seq = m.deadline(p); due < ts {
				if p.eng.stateSize() == 0 && p.eng.runCount() == 0 {
					heap.Pop(&m.reclaim)
					m.unlink(p)
					continue
				}
				// Live state here would mean reclaimBound promised too
				// much: keep the partition and look again one bound later.
				p.last = ts
				due, seq = m.deadline(p)
			}
		}
		p.due, p.seq = due, seq
		heap.Fix(&m.reclaim, 0)
	}
}

// unlink removes an empty partition from the map and keeps its shell.
func (m *Matcher) unlink(p *partition) {
	if head := m.parts[p.hash]; head == p {
		if p.next == nil {
			delete(m.parts, p.hash)
		} else {
			m.parts[p.hash] = p.next
		}
	} else {
		for q := head; q != nil; q = q.next {
			if q.next == p {
				q.next = p.next
				break
			}
		}
	}
	m.nparts--
	p.key, p.next = stream.Null, nil
	if len(m.spare) < sparePartitions {
		m.spare = append(m.spare, p)
	}
}

// catchUp advances every partition to the highest Advance time, for the
// readers that visit every partition anyway.
func (m *Matcher) catchUp() {
	m.eachPartition(func(p *partition) { p.eng.advance(m.swept) })
}

// partQueue is the reclaim queue: a min-heap of partitions by (due, seq)
// that keeps each partition's idx current.
type partQueue []*partition

func (q partQueue) Len() int { return len(q) }
func (q partQueue) Less(i, j int) bool {
	return q[i].due < q[j].due || q[i].due == q[j].due && q[i].seq < q[j].seq
}
func (q partQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].idx, q[j].idx = i, j
}
func (q *partQueue) Push(x interface{}) {
	p := x.(*partition)
	p.idx = len(*q)
	*q = append(*q, p)
}
func (q *partQueue) Pop() interface{} {
	old := *q
	p := old[len(old)-1]
	old[len(old)-1] = nil
	*q = old[:len(old)-1]
	return p
}

// Advance moves event time to ts (from a heartbeat or a non-participating
// tuple). An unpartitioned matcher evicts its state to ts; a partitioned
// one leaves its partitions to be evicted when next touched or read, and
// pops the queue entries due by ts: exception expiries fire (Active
// Expiration; their exceptions wait for TakeExceptions) and partitions
// whose state has surely expired are reclaimed.
func (m *Matcher) Advance(ts stream.Timestamp) {
	if ts > m.clock {
		m.clock = ts
	}
	if ts > m.swept {
		m.swept = ts
	}
	m.runDue(ts)
}

// StateSize reports the number of tuples currently retained across all
// partitions — the measure behind the paper's claim that pairing modes and
// windows allow aggressive history purging.
func (m *Matcher) StateSize() int {
	if m.single != nil {
		return m.single.stateSize()
	}
	m.catchUp()
	n := 0
	m.eachPartition(func(p *partition) { n += p.eng.stateSize() })
	return n
}

// Partitions reports how many partitions the matcher holds: one per key
// pushed since its partition was last reclaimed. A partition is reclaimed
// at the first Advance or push past the time its state has surely expired
// — bound after its newest tuple, where bound is the smaller of EXPIRE
// AFTER and a window that cuts every step; an exception partition also
// waits for its run to end — so on a stream of fresh keys this tracks the
// keys touched within the last bound, not every key ever seen. Patterns
// with neither bound never reclaim.
func (m *Matcher) Partitions() int { return m.nparts }

// TakeExceptions returns the EXCEPTION_SEQ exceptions raised by Push and
// Advance since the previous call, in raising order, and hands the slice to
// the caller (emission may re-enter the matcher through a derived stream,
// so the buffer is not recycled under it). Always nil for SEQ matchers.
func (m *Matcher) TakeExceptions() []*Exception {
	exs := m.exs
	m.exs = nil
	return exs
}

// RunCount gauges the pending partial matches (runs, or RECENT chains)
// across all partitions — the live-state counterpart to StateSize's tuple
// count.
func (m *Matcher) RunCount() int {
	if m.single != nil {
		return m.single.runCount()
	}
	m.catchUp()
	n := 0
	m.eachPartition(func(p *partition) { n += p.eng.runCount() })
	return n
}

// windowAdmits checks the sliding window when binding t at step, given the
// already-bound partial. PRECEDING windows anchored at step a constrain the
// earlier steps once the anchor binds; FOLLOWING windows constrain the
// later steps as they bind.
func windowAdmits(def *Def, partial *Match, step int, t *stream.Tuple) bool {
	w := def.Window
	if w == nil {
		return true
	}
	if w.Following {
		if step > w.Step {
			anchor := partial.Last(w.Step)
			if anchor == nil {
				return true // anchor unbound (shouldn't happen: steps bind in order)
			}
			return t.TS <= anchor.TS.Add(w.Span)
		}
		return true
	}
	// PRECEDING: when the anchor itself binds, every earlier tuple must be
	// within span before it.
	if step == w.Step {
		for i := 0; i < step; i++ {
			if f := partial.First(i); f != nil && f.TS < t.TS.Add(-w.Span) {
				return false
			}
		}
		// Star tuples already bound at the anchor step (t extends the
		// anchor's own star group) must also be covered.
		if f := partial.First(step); f != nil && f.TS < t.TS.Add(-w.Span) {
			return false
		}
	}
	return true
}

// predAdmits applies the cross-step residual predicate, if any.
func predAdmits(def *Def, partial *Match, step int, t *stream.Tuple) bool {
	return def.Pred == nil || def.Pred(partial, step, t)
}

// gapAdmits applies the star inter-arrival constraint when t would extend
// an existing star group whose last element is prev.
func gapAdmits(st *Step, prev, t *stream.Tuple) bool {
	return st.MaxGap == 0 || t.TS.Sub(prev.TS) <= st.MaxGap
}
