package core

import (
	"container/heap"
	"fmt"

	"repro/internal/snapshot"
	"repro/internal/stream"
)

// BreakReason classifies why a sequence failed to complete (§3.1.3's three
// scenarios).
type BreakReason uint8

// The exception causes of §3.1.3.
const (
	// BreakWrongTuple: an existing partial sequence can no longer correctly
	// extend due to a wrong incoming tuple.
	BreakWrongTuple BreakReason = iota
	// BreakBadStart: an incoming tuple is not the correct event to start a
	// new sequence and cannot extend an existing one (completion level 0).
	BreakBadStart
	// BreakWindowExpired: the sliding window expired on a tuple of a
	// partial sequence — detected actively, without any new arrival.
	BreakWindowExpired
)

// String names the reason.
func (r BreakReason) String() string {
	switch r {
	case BreakWrongTuple:
		return "WRONG_TUPLE"
	case BreakBadStart:
		return "BAD_START"
	case BreakWindowExpired:
		return "WINDOW_EXPIRED"
	default:
		return fmt.Sprintf("BreakReason(%d)", uint8(r))
	}
}

// Exception is one EXCEPTION_SEQ event: a sequence stuck at a Sequence
// Completion Level below the pattern length.
type Exception struct {
	// Level is the Sequence Completion Level reached: the number of steps
	// the partial sequence completed (0 when the trigger could not even
	// start a sequence). The exception occurs at Level+1.
	Level int
	// Partial carries the tuples bound before the violation; it has empty
	// groups beyond Level. Nil for a bad start with no active sequence.
	Partial *Match
	// Trigger is the offending incoming tuple; nil for window expiration.
	Trigger *stream.Tuple
	Reason  BreakReason
	// TS is the event time of the exception: the trigger's timestamp, or
	// the window deadline for expirations.
	TS stream.Timestamp
}

// String renders the exception for alerts and logs.
func (x *Exception) String() string {
	s := fmt.Sprintf("exception[%s level=%d @%s]", x.Reason, x.Level, x.TS)
	if x.Partial != nil {
		s += " partial=" + x.Partial.String()
	}
	if x.Trigger != nil {
		s += fmt.Sprintf(" trigger=%s", x.Trigger)
	}
	return s
}

// ExceptionMatcher implements EXCEPTION_SEQ and CLEVEL_SEQ. It wraps a
// Matcher whose per-partition engine tracks one sequence at a time over the joint
// tuple history (per partition key) and reports every violation; Push and
// Advance hand back the exceptions each call raised. The default semantics
// follow the paper's Example 5 analysis — "the correct sequence corresponds
// to SEQ(A,B,C) under the CONSECUTIVE mode with a sliding window" — so any
// joint-history tuple that cannot extend the active partial sequence raises
// an exception. ModeRecent is also supported: there, a repeat of an
// already-bound step replaces the earlier binding (raising the exception
// the paper describes), while other non-extending tuples are ignored rather
// than breaking the sequence.
//
// Window expiry is detected actively: a deadline is armed when the anchor
// step binds, and Advance fires it from heartbeats even when no tuple
// arrives.
type ExceptionMatcher struct {
	m *Matcher
}

// NewExceptionMatcher builds the matcher. Star steps are not supported in
// exception patterns (the paper defers them); ModeChronicle has no
// exception semantics and is rejected, and ModeUnrestricted runs as
// CONSECUTIVE.
func NewExceptionMatcher(def Def) (*ExceptionMatcher, error) {
	m, err := NewExceptionSeqMatcher(def)
	if err != nil {
		return nil, err
	}
	return &ExceptionMatcher{m}, nil
}

// NewExceptionSeqMatcher builds the Matcher behind an ExceptionMatcher, for
// callers that drive it directly: its completions come back from Push as
// usual, and the exceptions raised by Push and Advance wait for
// TakeExceptions. It validates def as NewExceptionMatcher does.
func NewExceptionSeqMatcher(def Def) (*Matcher, error) {
	if err := def.Validate(); err != nil {
		return nil, err
	}
	for i, s := range def.Steps {
		if s.Star {
			return nil, fmt.Errorf("core: EXCEPTION_SEQ step %d: star steps are not supported", i)
		}
	}
	switch def.Mode {
	case ModeConsecutive, ModeRecent:
	case ModeUnrestricted:
		// The paper's exception semantics presume a single tracked
		// sequence; treat the default mode as CONSECUTIVE.
		def.Mode = ModeConsecutive
	default:
		return nil, fmt.Errorf("core: EXCEPTION_SEQ does not support mode %s", def.Mode)
	}
	return newMatcher(def, true), nil
}

// MustExceptionMatcher panics on error, for tests and examples.
func MustExceptionMatcher(def Def) *ExceptionMatcher {
	m, err := NewExceptionMatcher(def)
	if err != nil {
		panic(err)
	}
	return m
}

// Push offers one joint-history tuple under its aliases. It returns the
// completed matches (callers running pure EXCEPTION_SEQ may ignore them)
// and the exceptions raised by this arrival.
func (x *ExceptionMatcher) Push(t *stream.Tuple, aliases ...string) ([]*Match, []*Exception, error) {
	matches, err := x.m.Push(t, aliases...)
	return matches, x.m.TakeExceptions(), err
}

// Advance moves event time forward, firing expired windows (§3.1.3
// scenario 3). It must be driven by heartbeats as well as tuples so that
// expirations surface without new arrivals — Active Expiration.
func (x *ExceptionMatcher) Advance(ts stream.Timestamp) []*Exception {
	x.m.Advance(ts)
	return x.m.TakeExceptions()
}

// CompletionLevel returns the current Sequence Completion Level of the
// (single or per-key) active sequence — the CLEVEL_SEQ operator's value
// between arrivals. A full pattern completion resets to 0.
func (x *ExceptionMatcher) CompletionLevel(key stream.Value) int {
	eng := x.m.single
	if eng == nil {
		p := x.m.lookup(key)
		if p == nil {
			return 0
		}
		eng = p.eng
	}
	return eng.(*exEngine).cur
}

// Def returns the pattern.
func (x *ExceptionMatcher) Def() *Def { return x.m.Def() }

// StateSize reports retained tuples across partitions.
func (x *ExceptionMatcher) StateSize() int { return x.m.StateSize() }

// Save serializes the automaton state (see Matcher.Save).
func (x *ExceptionMatcher) Save(enc *snapshot.Encoder) { x.m.Save(enc) }

// Load restores state written by Save (see Matcher.Load).
func (x *ExceptionMatcher) Load(dec *snapshot.Decoder) error { return x.m.Load(dec) }

// exEngine is the exception automaton of one partition: the single
// sequence it tracks, its completion level, and its active-expiration
// deadline. Exceptions go to the Matcher's buffer; push returns only
// completions.
type exEngine struct {
	m   *Matcher
	p   *partition // the engine's entry on m's reclaim queue; nil if unpartitioned
	key stream.Value
	run *Match
	cur int // next step to bind; level == cur for the active run
	// armed numbers the run's expiry among all the matcher has armed, so
	// same-instant expiries fire in arming order; zero while none is.
	armed  uint64
	expiry stream.Timestamp
}

func (e *exEngine) raise(x *Exception) { e.m.exs = append(e.m.exs, x) }

// push advances the automaton with an arriving tuple, then files the
// partition at its new deadline.
func (e *exEngine) push(_ []int, mask uint64, t *stream.Tuple) ([]*Match, error) {
	defer e.queue()
	def := &e.m.def
	var matches []*Match
	if e.run == nil {
		if maskHas(mask, 0) && predAdmits(def, e.emptyMatch(), 0, t) {
			e.start(t, &matches)
			return matches, nil
		}
		// §3.1.3 scenario 2: cannot start a new sequence.
		e.raise(&Exception{Level: 0, Trigger: t, Reason: BreakBadStart, TS: t.TS})
		return nil, nil
	}
	// Active run: does t bind the expected next step?
	if maskHas(mask, e.cur) &&
		windowAdmits(def, e.run, e.cur, t) && predAdmits(def, e.run, e.cur, t) {
		e.run.Groups[e.cur] = []*stream.Tuple{t}
		e.arm(e.cur, t)
		e.cur++
		if e.cur == len(def.Steps) {
			matches = append(matches, e.run)
			e.reset()
		}
		return matches, nil
	}
	if def.Mode == ModeRecent {
		// A repeat of an already-bound step replaces the binding and makes
		// the previous partial impossible to extend — the paper's RECENT
		// example ((A,B) then B).
		for s := 0; s < e.cur; s++ {
			if maskHas(mask, s) {
				e.raise(&Exception{
					Level: e.cur, Partial: e.run.clone(), Trigger: t,
					Reason: BreakWrongTuple, TS: t.TS,
				})
				e.run.Groups[s] = []*stream.Tuple{t}
				for i := s + 1; i < e.cur; i++ {
					e.run.Groups[i] = nil
				}
				e.cur = s + 1
				return nil, nil
			}
		}
		// Other non-extending tuples are ignored under RECENT pairing.
		return nil, nil
	}
	// CONSECUTIVE: §3.1.3 scenario 1 — the wrong incoming tuple breaks the
	// partial sequence.
	e.raise(&Exception{
		Level: e.cur, Partial: e.run.clone(), Trigger: t,
		Reason: BreakWrongTuple, TS: t.TS,
	})
	e.reset()
	// The breaking tuple may itself start a new sequence; otherwise it is
	// additionally a bad start (scenario 2).
	if maskHas(mask, 0) && predAdmits(def, e.emptyMatch(), 0, t) {
		e.start(t, &matches)
		return matches, nil
	}
	e.raise(&Exception{Level: 0, Trigger: t, Reason: BreakBadStart, TS: t.TS})
	return nil, nil
}

func (e *exEngine) emptyMatch() *Match {
	return &Match{Groups: make([][]*stream.Tuple, len(e.m.def.Steps)), Key: e.key}
}

func (e *exEngine) start(t *stream.Tuple, matches *[]*Match) {
	e.run = e.emptyMatch()
	e.run.Groups[0] = []*stream.Tuple{t}
	e.cur = 1
	e.arm(0, t)
	if e.cur == len(e.m.def.Steps) {
		*matches = append(*matches, e.run)
		e.reset()
	}
}

// arm sets the active-expiration deadline when the window's anchor step
// has just bound at position justBound (FOLLOWING windows; a PRECEDING
// window anchored at the final step is equivalently armed from the first
// binding, since the sequence must then finish within the span of its
// first tuple).
func (e *exEngine) arm(justBound int, t *stream.Tuple) {
	w := e.m.def.Window
	if w == nil {
		return
	}
	switch {
	case w.Following && justBound == w.Step:
	case !w.Following && w.Step == len(e.m.def.Steps)-1 && justBound == 0:
		// The whole sequence must finish within span of the first tuple.
	default:
		return
	}
	e.setExpiry(t.TS.Add(w.Span))
}

// setExpiry arms the run's expiry at the instant at, ordered after every
// expiry armed before it.
func (e *exEngine) setExpiry(at stream.Timestamp) {
	e.m.arms++
	e.armed, e.expiry = e.m.arms, at
}

func (e *exEngine) reset() {
	e.armed = 0
	e.run = nil
	e.cur = 0
}

// due is the run's reclaim queue key (see Matcher.deadline): the instant
// before its expiry, which fires once a horizon reaches it, with its
// arming ordinal; never while no expiry is armed.
func (e *exEngine) due() (stream.Timestamp, uint64) {
	if e.armed == 0 {
		return stream.MaxTimestamp, 0
	}
	return e.expiry.Add(-1), e.armed
}

// queue moves the partition's reclaim entry to its deadline when that is
// earlier or orders differently among equal instants. A later deadline
// may wait: Matcher.runDue re-files an entry popped early.
func (e *exEngine) queue() {
	p := e.p
	if p == nil {
		return
	}
	if due, seq := e.m.deadline(p); due < p.due || seq != p.seq {
		p.due, p.seq = due, seq
		heap.Fix(&e.m.reclaim, p.idx)
	}
}

func (e *exEngine) rekey(key stream.Value) { e.key = key }

// advance fires the armed expiry once ts reaches it: the active partial is
// reported at its completion level and the automaton resets.
func (e *exEngine) advance(ts stream.Timestamp) {
	if e.armed == 0 || e.expiry > ts {
		return
	}
	e.raise(&Exception{Level: e.cur, Partial: e.run, Reason: BreakWindowExpired, TS: e.expiry})
	e.reset()
}

func (e *exEngine) stateSize() int {
	if e.run == nil {
		return 0
	}
	n := 0
	for _, g := range e.run.Groups {
		n += len(g)
	}
	return n
}

func (e *exEngine) runCount() int {
	if e.run == nil {
		return 0
	}
	return 1
}
