package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/snapshot"
	"repro/internal/stream"
	"repro/internal/window"
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
	// window can no longer be satisfied.
	advance(ts stream.Timestamp)
	// stateSize counts retained tuples, for benchmarks and tests of the
	// paper's state-bounding claims.
	stateSize() int
	// runCount gauges pending partial matches (runs or RECENT chains).
	runCount() int
	// save/load serialize the engine's mutable state (see snapshot.go).
	save(enc *snapshot.Encoder)
	load(dec *snapshot.Decoder) error
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
// the EXCEPTION_SEQ automaton, whose active-expiration deadlines live on
// the matcher's one timer queue and whose exceptions collect in the
// matcher's buffer until TakeExceptions.
type Matcher struct {
	def    Def
	single engine
	parts  map[uint64][]*partition // key hash -> partitions (collision chain)
	nparts int

	// exceptions selects exEngine partitions; timers holds their deadlines
	// and exs the exceptions raised since the last TakeExceptions.
	exceptions bool
	timers     window.Timers
	exs        []*Exception

	// resolved caches Resolve by alias content, up to maxResolved sets;
	// pushRes is the scratch resolution Push fills instead.
	resolved []*Resolved
	pushRes  Resolved

	// clock is the event time the matcher has observed — pushed tuples and
	// Advance calls alike. Engines evict lazily against the clock as it
	// stood BEFORE the tuple being pushed: that reproduces, exactly, the
	// serial interleaving "push tuple, then advance to its timestamp" that
	// per-item ingestion performs, no matter how pushes are batched. The
	// ordering is observable: with star steps, eviction decides whether a
	// step-0 tuple is absorbed into a stale open run or starts a fresh one.
	clock stream.Timestamp

	// Scratch storage reused across Push/PushBatch calls so the steady-state
	// matching path allocates nothing. A Matcher is not safe for concurrent
	// use (the engine serializes access), so plain fields suffice.
	stepScratch []int
	remScratch  []int
	sameScratch []int
	stepArena   []int
	touched     []*partition
	emitScratch []batchEmit
	outScratch  []BatchMatch
}

type partition struct {
	key stream.Value
	eng engine
	// pending queues this partition's share of a PushBatch run; ord
	// reconstructs the serial emission order across partitions.
	pending []pendingPush
}

// pendingPush is one deferred engine.push within a PushBatch: the tuple, its
// qualifying step indexes (a range into the batch's step arena), and the
// global visit order the serial path would have used.
type pendingPush struct {
	ord    int
	index  int    // position of the tuple in the pushed run
	lo, hi int    // steps arena range
	mask   uint64 // the same step range as a bitmask
}

// batchEmit collects the matches of one deferred push for re-sorting.
type batchEmit struct {
	ord     int
	index   int
	matches []*Match
}

// NewMatcher validates the pattern and builds a matcher.
func NewMatcher(def Def) (*Matcher, error) {
	if err := def.Validate(); err != nil {
		return nil, err
	}
	return newMatcher(def, false), nil
}

func newMatcher(def Def, exceptions bool) *Matcher {
	m := &Matcher{def: def, exceptions: exceptions}
	m.def.hz = deriveHorizon(&m.def)
	if def.Partitioned() {
		m.parts = make(map[uint64][]*partition)
	} else {
		m.single = m.newEngine(stream.Null)
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

// newEngine picks the implementation: exception matchers run the
// exception automaton; star patterns and CONSECUTIVE mode need the run
// engine; plain sequences in the other modes use the cheaper chain engine.
func (m *Matcher) newEngine(key stream.Value) engine {
	switch {
	case m.exceptions:
		return &exEngine{m: m, key: key}
	case m.def.Mode == ModeConsecutive || hasStar(&m.def):
		return newRunEngine(&m.def, key)
	default:
		return newChainEngine(&m.def, key)
	}
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
	// mask is the candidate set as a step bitmask, before per-tuple
	// filtering (bit i set ⇔ i ∈ cands).
	mask uint64
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
	r.cands, r.mask = r.cands[:0], 0
	for i := len(def.Steps) - 1; i >= 0; i-- {
		for _, a := range aliases {
			if def.Steps[i].Alias == a {
				r.cands = append(r.cands, i)
				r.mask |= 1 << uint(i)
			}
		}
	}
}

// Steps reports how many candidate steps the resolution covers.
func (r *Resolved) Steps() int { return len(r.cands) }

// PushResolved is Push with the alias resolution precomputed; the
// steady-state path allocates nothing.
func (m *Matcher) PushResolved(r *Resolved, t *stream.Tuple) ([]*Match, error) {
	steps, mask := m.filterSteps(r, t, m.stepScratch[:0])
	m.stepScratch = steps
	return m.pushSteps(steps, mask, t, m.observe(t.TS))
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

// pushSteps feeds one tuple with its qualifying steps to the right
// partition engines, first evicting to the horizon pre; scratch storage is
// reused for the key grouping.
func (m *Matcher) pushSteps(steps []int, mask uint64, t *stream.Tuple, pre stream.Timestamp) ([]*Match, error) {
	if len(steps) == 0 {
		return nil, nil
	}
	if !m.def.Partitioned() {
		m.single.advance(pre)
		return m.single.push(steps, mask, t)
	}
	// Partitioned: push each group of qualifying steps sharing a key.
	var out []*Match
	rem := append(m.remScratch[:0], steps...)
	m.remScratch = rem
	for len(rem) > 0 {
		key, n, sameMask := m.nextKeyGroup(rem, t)
		p := m.partitionFor(key)
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

// nextKeyGroup splits off the steps of rem whose key for t equals rem[0]'s:
// it moves them to the tail rem[n:] (order within both halves preserved)
// and returns the key, n and the tail as a step bitmask.
func (m *Matcher) nextKeyGroup(rem []int, t *stream.Tuple) (key stream.Value, n int, mask uint64) {
	key = m.def.Steps[rem[0]].Key(t)
	same := append(m.sameScratch[:0], rem[0])
	mask = 1 << uint(rem[0])
	for _, si := range rem[1:] {
		if m.def.Steps[si].Key(t).Equal(key) {
			same = append(same, si)
			mask |= 1 << uint(si)
		} else {
			rem[n] = si
			n++
		}
	}
	copy(rem[n:], same)
	m.sameScratch = same
	return key, n, mask
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

// BatchMatch is one completed match from PushBatch, tagged with the index
// of the tuple in the pushed run that triggered it.
type BatchMatch struct {
	Index int
	Match *Match
}

// PushBatch feeds a run of in-order tuples under one resolution. For a
// partitioned pattern the run is first grouped by partition key, so each
// partition's state is visited once per batch instead of once per tuple;
// partitions are independent, so per-partition processing in arrival order
// reproduces the serial match set, and the returned matches are re-ordered
// to the exact serial emission order (by triggering tuple, then by the
// serial key-visit order within a tuple).
func (m *Matcher) PushBatch(r *Resolved, run []*stream.Tuple) ([]BatchMatch, error) {
	return m.PushBatchAt(r, run, nil)
}

// PushBatchAt is PushBatch with explicit eviction horizons: prev, when
// non-nil, is parallel to run and prev[i] holds the timestamp of the tuple
// that immediately preceded run[i] in the full joint history. Callers that
// drop tuples from a run before pushing (guarded routing) pass the horizons
// so eviction still tracks every arrival, exactly as serial per-item
// ingestion would. The returned slice is reused by the next PushBatch or
// PushBatchAt call.
//
// An exception matcher pushes the run tuple by tuple, so its exceptions
// are raised in arrival order: an Exception carries no batch index that
// would let the caller restore that order after grouping by partition.
func (m *Matcher) PushBatchAt(r *Resolved, run []*stream.Tuple, prev []stream.Timestamp) (out []BatchMatch, err error) {
	clear(m.outScratch)
	out = m.outScratch[:0]
	defer func() { m.outScratch = out }()
	if !m.def.Partitioned() || m.exceptions {
		for i, t := range run {
			pre := m.observe(t.TS)
			if len(prev) > 0 && prev[i] > pre {
				pre = prev[i]
			}
			steps, mask := m.filterSteps(r, t, m.stepScratch[:0])
			m.stepScratch = steps
			// A tuple with no qualifying steps is invisible to the pattern:
			// pushSteps skips it. Without that, CONSECUTIVE would treat it as
			// a visible non-extending arrival and break the active run.
			matches, err := m.pushSteps(steps, mask, t, pre)
			for _, match := range matches {
				out = append(out, BatchMatch{Index: i, Match: match})
			}
			if err != nil {
				return out, err
			}
		}
		return out, nil
	}
	// Pass 1: resolve steps and group by partition, preserving per-tuple
	// key-visit order in ord.
	entryClock := m.clock
	arena := m.stepArena[:0]
	touched := m.touched[:0]
	ord := 0
	for i, t := range run {
		lo := len(arena)
		arena, _ = m.filterSteps(r, t, arena)
		rem := arena[lo:]
		for len(rem) > 0 {
			key, n, sameMask := m.nextKeyGroup(rem, t)
			p := m.partitionFor(key)
			if len(p.pending) == 0 {
				touched = append(touched, p)
			}
			p.pending = append(p.pending, pendingPush{ord: ord, index: i, lo: lo + n, hi: lo + len(rem), mask: sameMask})
			ord++
			rem = rem[:n]
		}
	}
	m.stepArena = arena
	if n := len(run); n > 0 {
		m.observe(run[n-1].TS)
	}
	// Pass 2: drain each touched partition in arrival order, first evicting
	// to the serial clock horizon — the previous tuple's timestamp — so
	// state at each push matches the per-item interleaving exactly.
	emits := m.emitScratch[:0]
	var pushErr error
	for _, p := range touched {
		for _, pp := range p.pending {
			pre := entryClock
			if pp.index > 0 {
				if ts := run[pp.index-1].TS; ts > pre {
					pre = ts
				}
			}
			if len(prev) > 0 && prev[pp.index] > pre {
				pre = prev[pp.index]
			}
			p.eng.advance(pre)
			matches, err := p.eng.push(arena[pp.lo:pp.hi], pp.mask, run[pp.index])
			if len(matches) > 0 {
				emits = append(emits, batchEmit{ord: pp.ord, index: pp.index, matches: matches})
			}
			if err != nil && pushErr == nil {
				pushErr = err
			}
		}
		p.pending = p.pending[:0]
	}
	m.touched = touched[:0]
	// Pass 3: restore the serial emission order. The comparator captures
	// nothing, so a run of one costs what PushResolved does.
	slices.SortFunc(emits, func(a, b batchEmit) int { return cmp.Compare(a.ord, b.ord) })
	for _, em := range emits {
		for _, match := range em.matches {
			out = append(out, BatchMatch{Index: em.index, Match: match})
		}
	}
	for i := range emits {
		emits[i].matches = nil
	}
	m.emitScratch = emits[:0]
	return out, pushErr
}

func (m *Matcher) partitionFor(key stream.Value) *partition {
	if p := m.lookup(key); p != nil {
		return p
	}
	p := &partition{key: key, eng: m.newEngine(key)}
	h := key.Hash()
	m.parts[h] = append(m.parts[h], p)
	m.nparts++
	return p
}

// lookup finds key's partition without creating it.
func (m *Matcher) lookup(key stream.Value) *partition {
	for _, p := range m.parts[key.Hash()] {
		if p.key.Equal(key) {
			return p
		}
	}
	return nil
}

// Advance moves event time to ts (from a heartbeat or a non-participating
// tuple), evicting expired matching state. On an exception matcher it fires
// the due active-expiration timers instead; their exceptions wait for
// TakeExceptions.
func (m *Matcher) Advance(ts stream.Timestamp) {
	if ts > m.clock {
		m.clock = ts
	}
	if m.exceptions {
		for _, tm := range m.timers.PopDue(ts) {
			tm.Payload.(*exEngine).expire(tm)
		}
		return
	}
	if m.single != nil {
		m.single.advance(ts)
		return
	}
	for _, chain := range m.parts {
		for _, p := range chain {
			p.eng.advance(ts)
		}
	}
}

// StateSize reports the number of tuples currently retained across all
// partitions — the measure behind the paper's claim that pairing modes and
// windows allow aggressive history purging.
func (m *Matcher) StateSize() int {
	if m.single != nil {
		return m.single.stateSize()
	}
	n := 0
	for _, chain := range m.parts {
		for _, p := range chain {
			n += p.eng.stateSize()
		}
	}
	return n
}

// Partitions reports how many partitions the matcher has ever created —
// one per distinct key seen since construction or the last Load, live state
// or not. Partitions are never reclaimed, so on a stream of fresh keys this
// grows without bound even when only a few keys hold live runs.
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
	n := 0
	for _, chain := range m.parts {
		for _, p := range chain {
			n += p.eng.runCount()
		}
	}
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
