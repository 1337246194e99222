package core

import (
	"repro/internal/stream"
	"repro/internal/window"
)

// chainEngine matches plain (star-free) sequences under the UNRESTRICTED,
// RECENT and CHRONICLE pairing modes.
//
//   - UNRESTRICTED keeps a windowed history buffer per non-final step and,
//     on each final-step arrival, enumerates every time-ordered combination
//     (§3.1.1's "all possible sequences of the correct time order").
//   - CHRONICLE keeps FIFO history per step; on a final-step arrival it
//     binds the chronologically earliest qualifying chain and consumes the
//     participants.
//   - RECENT keeps exactly one chain per prefix length: an arriving step-i
//     tuple extends a copy of the prefix chain of length i and replaces the
//     stored length-i+1 chain, implementing "earlier tuples are constantly
//     replaced by later tuples as the candidate". A chain leaves once no
//     final tuple still to come could satisfy its window.
//
// EXPIRE AFTER prunes partial matches that bound nothing for ExpireAfter
// before the clock, as the run engine's idle test does: a RECENT chain is
// dropped once its last tuple is idle; in the buffered modes a tuple may
// follow a previous-step tuple only if that one was not yet idle when it
// arrived, which its stamp (held.lo) records.
type chainEngine struct {
	def *Def
	key stream.Value

	// bufs[i] is the retained history for step i (UNRESTRICTED/CHRONICLE);
	// the final step needs no history.
	bufs []window.Store[held]
	// at is the horizon the engine has been advanced to: the push horizon
	// of the tuple being pushed, which EXPIRE AFTER stamps it with.
	at stream.Timestamp

	// chains[i] is the RECENT-mode chain covering steps 0..i (final step
	// excluded: completions are emitted, not stored).
	chains []*Match
}

// held is one buffered step tuple. Under EXPIRE AFTER, lo is its push
// horizon less ExpireAfter: the oldest a previous-step tuple may be and
// still precede it, since a partial idle longer had expired by its arrival.
type held struct {
	t  *stream.Tuple
	lo stream.Timestamp
}

func (h held) Time() stream.Timestamp { return h.t.TS }

func newChainEngine(def *Def, key stream.Value) engine {
	e := &chainEngine{def: def, key: key, at: stream.MinTimestamp}
	n := len(def.Steps)
	if def.Mode == ModeRecent {
		e.chains = make([]*Match, n-1)
	} else {
		e.bufs = make([]window.Store[held], n-1)
	}
	return e
}

func (e *chainEngine) rekey(key stream.Value) { e.key, e.at = key, stream.MinTimestamp }

// stamped reports whether buffered tuples carry EXPIRE AFTER stamps.
func (e *chainEngine) stamped() bool { return e.def.ExpireAfter > 0 && len(e.bufs) > 0 }

// follows reports whether h may bind right after prev: under EXPIRE AFTER,
// prev's partial must not have been idle when h arrived.
func (e *chainEngine) follows(prev *stream.Tuple, h held) bool {
	return e.def.ExpireAfter == 0 || prev.TS >= h.lo
}

func (e *chainEngine) push(steps []int, _ uint64, t *stream.Tuple) ([]*Match, error) {
	var out []*Match
	last := len(e.def.Steps) - 1
	for _, si := range steps { // already descending
		if si == last {
			out = append(out, e.complete(t)...)
			continue
		}
		switch e.def.Mode {
		case ModeRecent:
			e.extendChain(si, t)
		default:
			if err := e.bufs[si].Add(held{t: t, lo: e.at.Add(-e.def.ExpireAfter)}); err != nil {
				return out, err
			}
		}
	}
	e.advance(t.TS)
	return out, nil
}

// extendChain implements RECENT binding of t at non-final step si.
func (e *chainEngine) extendChain(si int, t *stream.Tuple) {
	var c *Match
	if si == 0 {
		c = &Match{Groups: make([][]*stream.Tuple, len(e.def.Steps)), Key: e.key}
	} else {
		prev := e.chains[si-1]
		if prev == nil {
			return // no qualifying prefix
		}
		if lastT := prev.Last(si - 1); lastT == nil || !lastT.BeforeInOrder(t) {
			return
		}
		if !windowAdmits(e.def, prev, si, t) || !predAdmits(e.def, prev, si, t) {
			return
		}
		// Chains only ever replace whole groups (singletons), never append
		// into them, so the prefix copy can share group arrays
		// copy-on-write. Emission still deep-clones (see complete).
		c = prev.cowClone()
	}
	c.Groups[si] = []*stream.Tuple{t}
	e.chains[si] = c
}

// complete handles a final-step arrival, emitting completed matches.
func (e *chainEngine) complete(t *stream.Tuple) []*Match {
	last := len(e.def.Steps) - 1
	switch e.def.Mode {
	case ModeRecent:
		if last == 0 {
			m := &Match{Groups: [][]*stream.Tuple{{t}}, Key: e.key}
			if predAdmits(e.def, &Match{Groups: make([][]*stream.Tuple, 1), Key: e.key}, 0, t) {
				return []*Match{m}
			}
			return nil
		}
		prev := e.chains[last-1]
		if prev == nil {
			return nil
		}
		if lastT := prev.Last(last - 1); lastT == nil || !lastT.BeforeInOrder(t) {
			return nil
		}
		if !windowAdmits(e.def, prev, last, t) || !predAdmits(e.def, prev, last, t) {
			return nil
		}
		m := prev.clone()
		m.Groups[last] = []*stream.Tuple{t}
		return []*Match{m}

	case ModeChronicle:
		partial := &Match{Groups: make([][]*stream.Tuple, len(e.def.Steps)), Key: e.key}
		if e.searchEarliest(partial, 0, t) {
			partial.Groups[last] = []*stream.Tuple{t}
			// Consume participants: each tuple forms at most one event.
			for i := 0; i < last; i++ {
				used := partial.Groups[i][0]
				e.bufs[i].Remove(func(h held) bool { return h.t == used })
			}
			return []*Match{partial}
		}
		return nil

	default: // ModeUnrestricted
		partial := &Match{Groups: make([][]*stream.Tuple, len(e.def.Steps)), Key: e.key}
		var out []*Match
		e.enumerate(partial, 0, t, &out)
		return out
	}
}

// searchEarliest binds steps si..last-1 with the chronologically earliest
// qualifying tuples (DFS with backtracking so that a constraint failure on
// a later step tries the next candidate). Returns true when a full prefix
// chain was bound into partial, and finally validates the terminal tuple.
func (e *chainEngine) searchEarliest(partial *Match, si int, t *stream.Tuple) bool {
	last := len(e.def.Steps) - 1
	if si == last {
		return windowAdmits(e.def, partial, last, t) && predAdmits(e.def, partial, last, t)
	}
	ok := false
	e.bufs[si].Each(func(h held) bool {
		cand := h.t
		if si > 0 {
			prev := partial.Last(si - 1)
			if !prev.BeforeInOrder(cand) || !e.follows(prev, h) {
				return true // too early, or its prefix idled out; keep scanning
			}
		}
		if !cand.BeforeInOrder(t) {
			return false // at/after the terminal tuple; no later candidate helps
		}
		if !windowAdmits(e.def, partial, si, cand) || !predAdmits(e.def, partial, si, cand) {
			return true
		}
		partial.Groups[si] = []*stream.Tuple{cand}
		if e.searchEarliest(partial, si+1, t) {
			ok = true
			return false
		}
		partial.Groups[si] = nil
		return true
	})
	return ok
}

// enumerate emits every qualifying combination (UNRESTRICTED).
func (e *chainEngine) enumerate(partial *Match, si int, t *stream.Tuple, out *[]*Match) {
	last := len(e.def.Steps) - 1
	if si == last {
		if windowAdmits(e.def, partial, last, t) && predAdmits(e.def, partial, last, t) {
			m := partial.clone()
			m.Groups[last] = []*stream.Tuple{t}
			*out = append(*out, m)
		}
		return
	}
	e.bufs[si].Each(func(h held) bool {
		cand := h.t
		if si > 0 {
			prev := partial.Last(si - 1)
			if !prev.BeforeInOrder(cand) || !e.follows(prev, h) {
				return true
			}
		}
		if !cand.BeforeInOrder(t) {
			return false
		}
		if !windowAdmits(e.def, partial, si, cand) || !predAdmits(e.def, partial, si, cand) {
			return true
		}
		partial.Groups[si] = []*stream.Tuple{cand}
		e.enumerate(partial, si+1, t, out)
		partial.Groups[si] = nil
		return true
	})
}

// advance drops the history of every step cut below now − span; a cut
// that holds only while the anchor is unbound does not apply, since the
// anchor may already sit in a buffer. It drops each RECENT chain the
// window rules out, by the run engine's level rule (a chain covering steps
// 0..i has completed i+1). Under EXPIRE AFTER it also drops the chains
// idle at now, and each buffered tuple that can neither be extended any
// more (older than now − ExpireAfter) nor precede a retained next-step
// tuple (older than that buffer's oldest stamp).
func (e *chainEngine) advance(now stream.Timestamp) {
	if now > e.at {
		e.at = now
	}
	hz := &e.def.hz
	idle := now.Add(-e.def.ExpireAfter)
	for i := len(e.bufs) - 1; i >= 0; i-- {
		if i >= hz.cutFrom {
			e.bufs[i].EvictBefore(now.Add(-hz.span))
		}
		if e.def.ExpireAfter > 0 {
			cut := idle
			if i+1 < len(e.bufs) {
				e.bufs[i+1].Each(func(h held) bool { // the oldest stamp is the lowest
					cut = min(cut, h.lo)
					return false
				})
			}
			e.bufs[i].EvictBefore(cut)
		}
	}
	for i, c := range e.chains {
		if c != nil && (hz.dead(c, i+1, now) || e.def.ExpireAfter > 0 && c.Last(i).TS < idle) {
			e.chains[i] = nil
		}
	}
}

func (e *chainEngine) runCount() int {
	n := 0
	for _, c := range e.chains {
		if c != nil {
			n++
		}
	}
	return n
}

func (e *chainEngine) stateSize() int {
	n := 0
	for i := range e.bufs {
		n += e.bufs[i].Len()
	}
	for _, c := range e.chains {
		if c == nil {
			continue
		}
		for _, g := range c.Groups {
			n += len(g)
		}
	}
	return n
}
