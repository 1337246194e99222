// Package core implements the paper's primary contribution: the ESL-EV
// temporal event operators. It provides SEQ over multiple streams, star
// sequences (repeating steps with longest-match semantics, FIRST/LAST/COUNT
// star aggregates and the `previous` inter-arrival constraint), the four
// Tuple Pairing Modes (UNRESTRICTED, RECENT, CHRONICLE, CONSECUTIVE),
// sliding windows anchored on any step (PRECEDING and FOLLOWING), and the
// EXCEPTION_SEQ / CLEVEL_SEQ violation detectors with Active Expiration.
//
// The language layer (internal/esl) compiles WHERE-clause SEQ predicates
// into the Def/Matcher types here; the matchers are also directly usable as
// a Go complex-event-processing API.
package core

import (
	"fmt"
	"time"

	"repro/internal/stream"
)

// Mode is a Tuple Pairing Mode: the event-consumption policy that dictates
// how tuple history is kept and which combinations form events (§3.1.1).
type Mode uint8

// The four pairing modes of the paper. ModeUnrestricted is the default.
const (
	// ModeUnrestricted generates every combination of qualifying tuples in
	// the correct time order.
	ModeUnrestricted Mode = iota
	// ModeRecent matches an incoming tuple with the most recent qualifying
	// tuple on each other stream; earlier candidates are replaced by later
	// ones, bounding history to one chain per prefix.
	ModeRecent
	// ModeChronicle matches with the earliest qualifying tuples; each tuple
	// participates in at most one event and is consumed on match.
	ModeChronicle
	// ModeConsecutive only matches tuples that are adjacent on the joint
	// tuple history (the timestamp-ordered union of all participating
	// streams); any interleaved tuple breaks the pattern.
	ModeConsecutive
)

// String returns the mode's ESL-EV spelling.
func (m Mode) String() string {
	switch m {
	case ModeUnrestricted:
		return "UNRESTRICTED"
	case ModeRecent:
		return "RECENT"
	case ModeChronicle:
		return "CHRONICLE"
	case ModeConsecutive:
		return "CONSECUTIVE"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// ModeFromName parses a pairing-mode name (case-sensitive, upper case, as
// written in queries).
func ModeFromName(name string) (Mode, bool) {
	switch name {
	case "UNRESTRICTED":
		return ModeUnrestricted, true
	case "RECENT":
		return ModeRecent, true
	case "CHRONICLE":
		return ModeChronicle, true
	case "CONSECUTIVE":
		return ModeConsecutive, true
	default:
		return ModeUnrestricted, false
	}
}

// Step is one position of a SEQ pattern.
type Step struct {
	// Alias names the step as written in the query (the FROM alias). It is
	// how arriving tuples are routed: the engine tags each tuple with the
	// alias(es) of the stream it arrived on.
	Alias string
	// Star marks a repeating step (E*). A star step matches a maximal run
	// of one or more consecutive tuples (longest-match, per §3.1.2).
	Star bool
	// Filter, when non-nil, is the per-tuple qualifying predicate for this
	// step (attribute conditions pushed down from the WHERE clause). A
	// tuple failing the filter does not bind to the step.
	Filter func(t *stream.Tuple) bool
	// MaxGap bounds the inter-arrival gap between consecutive tuples of a
	// star run — the paper's `R1.tagtime - R1.previous.tagtime <= g`
	// constraint. Zero means unconstrained. Only meaningful when Star.
	MaxGap time.Duration
	// Key, when non-nil, extracts this step's partition key. When every
	// step has a Key, matching state is partitioned: tuples only pair with
	// tuples of equal key (the planner derives this from equality
	// predicates like C1.tagid = C2.tagid).
	Key func(t *stream.Tuple) stream.Value
}

// WindowAnchor applies a sliding window to the operator, measured from the
// tuple bound at the anchor step (§3.1.1 "Sliding Windows on SEQ" and the
// FOLLOWING windows of §3.1.3).
type WindowAnchor struct {
	Span time.Duration
	// Step is the index of the anchoring step.
	Step int
	// Following selects [anchor, anchor+Span] (FOLLOWING); otherwise the
	// window is [anchor-Span, anchor] (PRECEDING).
	Following bool
}

// Def declares a complete SEQ pattern.
type Def struct {
	Steps  []Step
	Mode   Mode
	Window *WindowAnchor
	// Pred, when non-nil, is a cross-step predicate consulted whenever a
	// tuple is about to bind to a step, given the tuples already bound. It
	// carries the residual WHERE conditions that reference several steps
	// (e.g. R2.tagtime - LAST(R1*).tagtime <= 5 SECONDS, evaluated when R2
	// binds). partial holds groups for steps < step; t is the candidate.
	Pred func(partial *Match, step int, t *stream.Tuple) bool
	// ExpireAfter, when positive, prunes pending partial matches that have
	// not bound a new tuple for this long. It bounds state for patterns
	// whose timing constraints live in Pred (where the matcher cannot
	// deduce an eviction horizon itself), such as Example 7's
	// "R2.tagtime - LAST(R1*).tagtime <= 5 SECONDS".
	ExpireAfter time.Duration

	// hz is the pruning horizon Window implies, derived once by newMatcher.
	hz horizon
}

// horizon is the pruning rule of a Def's window, derived once per Def. A
// tuple older than now − span can join no match its window must cover
// (SASE), so the window is also a pruning horizon. Each step's history has
// one of three horizons: steps from cutFrom on are dead below now − span;
// steps up to unboundTo are dead below it only while the anchor step is
// unbound (a bound anchor may still cover them); other steps have none.
type horizon struct {
	span      time.Duration
	cutFrom   int  // len(Steps) when no step is cut
	unboundTo int  // -1 when no step is cut while unbound
	fromLast  bool // FOLLOWING: the cut measures the anchor from LAST(anchor)
}

// deriveHorizon places the cuts:
//
//   - PRECEDING on the final step: every bound tuple must lie within span
//     before a terminal tuple yet to come, so every step is cut;
//   - PRECEDING on an earlier step k: steps up to k are cut while the
//     anchor is unbound; once it binds, the window constrains nothing
//     still to come;
//   - FOLLOWING on step k: every later tuple must lie within span after
//     LAST(k), so steps from k on are cut; a star anchor's group is dead
//     only once its last tuple is.
func deriveHorizon(d *Def) horizon {
	h := horizon{cutFrom: len(d.Steps), unboundTo: -1}
	w := d.Window
	switch {
	case w == nil:
		return h
	case w.Following:
		h.cutFrom, h.fromLast = w.Step, true
	case w.Step == len(d.Steps)-1:
		h.cutFrom = 0
	default:
		h.unboundTo = w.Step
	}
	h.span = w.Span
	return h
}

// dead reports whether a partial that has completed level steps, bound as
// m, can no longer satisfy the window at ts. It dies once any tuple it
// holds under a live cut is older than ts − span, and tuples bind in time
// order, so the oldest such tuple decides: FIRST(0) while the anchor is
// unbound, else the first cut step's tuple once the partial has bound it.
func (h *horizon) dead(m *Match, level int, ts stream.Timestamp) bool {
	var t *stream.Tuple
	switch {
	case level <= h.unboundTo:
		t = m.First(0)
	case level > h.cutFrom && h.fromLast:
		t = m.Last(h.cutFrom)
	case level > h.cutFrom:
		t = m.First(h.cutFrom)
	}
	return t != nil && t.TS < ts.Add(-h.span)
}

// Validate checks structural soundness of the pattern.
func (d *Def) Validate() error {
	if len(d.Steps) == 0 {
		return fmt.Errorf("core: pattern needs at least one step")
	}
	if len(d.Steps) > 64 {
		// Qualifying steps travel as a uint64 bitmask through push/pushBatch.
		return fmt.Errorf("core: pattern has %d steps; at most 64 are supported", len(d.Steps))
	}
	seen := make(map[string]bool, len(d.Steps))
	keyed := 0
	for i, s := range d.Steps {
		if s.Alias == "" {
			return fmt.Errorf("core: step %d has empty alias", i)
		}
		if seen[s.Alias] {
			return fmt.Errorf("core: duplicate step alias %q", s.Alias)
		}
		seen[s.Alias] = true
		if s.MaxGap < 0 {
			return fmt.Errorf("core: step %d has negative MaxGap", i)
		}
		if s.MaxGap > 0 && !s.Star {
			return fmt.Errorf("core: step %d: MaxGap only applies to star steps", i)
		}
		if s.Key != nil {
			keyed++
		}
	}
	if keyed != 0 && keyed != len(d.Steps) {
		return fmt.Errorf("core: partition keys must be set on all steps or none")
	}
	if d.Window != nil {
		if d.Window.Span <= 0 {
			return fmt.Errorf("core: window span must be positive")
		}
		if d.Window.Step < 0 || d.Window.Step >= len(d.Steps) {
			return fmt.Errorf("core: window anchor step %d out of range", d.Window.Step)
		}
	}
	return nil
}

// Partitioned reports whether matching state is split by key.
func (d *Def) Partitioned() bool { return len(d.Steps) > 0 && d.Steps[0].Key != nil }

// Match is one detected event: for each step, the group of tuples bound to
// it (singletons for non-star steps).
type Match struct {
	// Groups has one entry per pattern step, in step order. Group slices
	// are owned by the Match.
	Groups [][]*stream.Tuple
	// Key is the partition key the match was formed under (Null when the
	// pattern is unpartitioned).
	Key stream.Value
}

// First returns the first tuple bound to step i — the FIRST(E*) aggregate.
func (m *Match) First(i int) *stream.Tuple {
	if i < 0 || i >= len(m.Groups) || len(m.Groups[i]) == 0 {
		return nil
	}
	return m.Groups[i][0]
}

// Last returns the last tuple bound to step i — the LAST(E*) aggregate.
func (m *Match) Last(i int) *stream.Tuple {
	if i < 0 || i >= len(m.Groups) || len(m.Groups[i]) == 0 {
		return nil
	}
	g := m.Groups[i]
	return g[len(g)-1]
}

// Count returns the number of tuples bound to step i — the COUNT(E*)
// aggregate.
func (m *Match) Count(i int) int {
	if i < 0 || i >= len(m.Groups) {
		return 0
	}
	return len(m.Groups[i])
}

// End returns the event time of the match: the timestamp of the last bound
// tuple.
func (m *Match) End() stream.Timestamp {
	for i := len(m.Groups) - 1; i >= 0; i-- {
		if g := m.Groups[i]; len(g) > 0 {
			return g[len(g)-1].TS
		}
	}
	return stream.MinTimestamp
}

// Prov returns the match's provenance hash: the XOR fold of every bound
// tuple's content hash. XOR is order-independent, so two replicas that bind
// the same tuples — in different arrival orders, through different run-store
// paths — derive the same identity. The speculation layer uses it as the
// stable MatchID component that lets a retraction name exactly the rows it
// cancels; the run stores retain the bound tuples themselves (Groups), so
// provenance survives copy-on-write forks and snapshot round-trips for
// free.
func (m *Match) Prov() uint64 {
	var h uint64
	for _, g := range m.Groups {
		for _, t := range g {
			h ^= stream.ContentHash(t)
		}
	}
	return h
}

// clone deep-copies the group structure (tuples shared). Emitted matches
// always go through clone, so the public contract — "Group slices are owned
// by the Match" — holds even when the engine's internal runs share group
// arrays copy-on-write.
func (m *Match) clone() *Match {
	c := &Match{Groups: make([][]*stream.Tuple, len(m.Groups)), Key: m.Key}
	for i, g := range m.Groups {
		c.Groups[i] = append([]*stream.Tuple(nil), g...)
	}
	return c
}

// cowInto copies m's bound groups into dst as a copy-on-write fork: the
// group arrays are shared between the two matches, with both sides capped
// so that any later append reallocates instead of writing into the
// sibling's storage. Neither side may mutate group contents in place.
func (m *Match) cowInto(dst *Match) {
	for i, g := range m.Groups {
		g = g[:len(g):len(g)]
		m.Groups[i] = g
		dst.Groups[i] = g
	}
	dst.Key = m.Key
}

// cowClone is cowInto with a fresh destination spine.
func (m *Match) cowClone() *Match {
	c := &Match{Groups: make([][]*stream.Tuple, len(m.Groups))}
	m.cowInto(c)
	return c
}

// String renders the match in the paper's (t1:C1, t3:C2, ...) notation.
func (m *Match) String() string {
	s := "("
	first := true
	for _, g := range m.Groups {
		for _, t := range g {
			if !first {
				s += ", "
			}
			first = false
			s += fmt.Sprintf("%s:%s", t.TS, t.Schema.Name())
		}
	}
	return s + ")"
}
