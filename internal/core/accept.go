package core

import (
	"fmt"
	"sort"

	"repro/internal/stream"
)

// Per-query acceptance for shared (merged) matchers.
//
// When N queries share a SEQ prefix, one Matcher runs the shared automaton
// with the final step's filter widened to the union of the member queries'
// final-step predicates. Each completed match is then attributed to the
// members that individually accept it. An Acceptor is one member's
// admission test; an AcceptSet is the dynamic member table with a
// constant-equality hash index over the final tuple, so attribution costs
// one probe plus the handful of candidate members instead of a scan of all
// N.

// Acceptor is one query's admission test at the final step of a shared
// matcher.
type Acceptor struct {
	// ID orders members; Accepted returns IDs ascending, which the caller
	// maps back to registration order.
	ID int
	// EqPos/EqVal index the member under a constant equality on the final
	// tuple (column position EqPos must equal EqVal). EqPos < 0 puts the
	// member on the always-checked list.
	EqPos int
	EqVal stream.Value
	// Filter is the member's remaining final-step visibility predicate
	// beyond the indexed equality (nil = none). It sees only the final
	// tuple, like a Step.Filter.
	Filter func(*stream.Tuple) bool
	// Check is the member's residual acceptance on the completed match
	// (multi-step predicates evaluated at the final step; nil = none).
	Check func(*Match) bool
	// MinSeq gates acceptance to matches whose earliest bound tuple arrived
	// after the member joined: a query registered mid-stream must not see
	// matches built from tuples that predate it.
	MinSeq uint64
}

// visible reports whether the member's final step would see t at all.
// A nil final tuple (a star final that matched zero tuples) satisfies only
// members with no final-tuple tests.
func (a *Acceptor) visible(t *stream.Tuple) bool {
	if t == nil {
		return a.EqPos < 0 && a.Filter == nil
	}
	if a.EqPos >= 0 {
		v := t.Get(a.EqPos)
		if v.Kind() == stream.KindNull {
			return false
		}
		if c, ok := v.Compare(a.EqVal); !ok || c != 0 {
			return false
		}
	}
	return a.Filter == nil || a.Filter(t)
}

// accepts is the full member admission test for a completed match ending
// in t.
func (a *Acceptor) accepts(t *stream.Tuple, m *Match) bool {
	if !a.visible(t) {
		return false
	}
	if a.MinSeq > 0 && matchMinSeq(m) <= a.MinSeq {
		return false
	}
	return a.Check == nil || a.Check(m)
}

// matchMinSeq is the arrival sequence of the earliest tuple bound anywhere
// in the match (star groups may leave early steps empty).
func matchMinSeq(m *Match) uint64 {
	min := uint64(0)
	for _, g := range m.Groups {
		if len(g) == 0 {
			continue
		}
		if s := g[0].Seq; min == 0 || s < min {
			min = s
		}
	}
	return min
}

// acceptEntry collects the member IDs indexed under one (column, value).
type acceptEntry struct {
	val stream.Value
	ids []int
}

// acceptCol is the hash index for one final-tuple column.
type acceptCol struct {
	pos     int
	entries map[uint64][]acceptEntry
}

// AcceptSet is the dynamic per-query acceptance table of a shared matcher.
// Members are added at query registration and removed at deregistration;
// Visible serves as the shared automaton's final-step filter and Accepted
// attributes each completed match. Not safe for concurrent use (the owning
// engine serializes access).
type AcceptSet struct {
	members []Acceptor // ascending ID
	cols    []acceptCol
	checked []int // member indexes with no equality to index
	scratch []int // probe candidate buffer, reused across Accepted calls
}

// Len returns the member count.
func (s *AcceptSet) Len() int { return len(s.members) }

// Add appends a member and indexes it alone. IDs must increase over the
// life of the set, so acceptance order tracks registration order; a
// non-increasing ID is a caller bug and panics.
func (s *AcceptSet) Add(a Acceptor) {
	if n := len(s.members); n > 0 && a.ID <= s.members[n-1].ID {
		panic(fmt.Sprintf("core: AcceptSet.Add: ID %d does not follow %d", a.ID, s.members[n-1].ID))
	}
	s.members = append(s.members, a)
	s.index(len(s.members) - 1)
}

// SetMinSeq re-points a member's registration fence (snapshot restore: the
// fence was taken against the snapshotted engine's arrival counter).
func (s *AcceptSet) SetMinSeq(id int, seq uint64) {
	for i := range s.members {
		if s.members[i].ID == id {
			s.members[i].MinSeq = seq
			return
		}
	}
}

// Remove deletes the member with the given ID, reporting whether it was
// present. Shared automaton state is untouched: remaining members keep
// matching against the same runs.
func (s *AcceptSet) Remove(id int) bool {
	for i := range s.members {
		if s.members[i].ID == id {
			s.members = append(s.members[:i], s.members[i+1:]...)
			s.rebuild()
			return true
		}
	}
	return false
}

func (s *AcceptSet) rebuild() {
	s.cols = s.cols[:0]
	s.checked = s.checked[:0]
	for i := range s.members {
		s.index(i)
	}
}

// index files member i under its equality's column and value, or on the
// always-checked list when it has none.
func (s *AcceptSet) index(i int) {
	a := &s.members[i]
	if a.EqPos < 0 {
		s.checked = append(s.checked, i)
		return
	}
	var col *acceptCol
	for ci := range s.cols {
		if s.cols[ci].pos == a.EqPos {
			col = &s.cols[ci]
			break
		}
	}
	if col == nil {
		s.cols = append(s.cols, acceptCol{pos: a.EqPos, entries: map[uint64][]acceptEntry{}})
		col = &s.cols[len(s.cols)-1]
	}
	h := a.EqVal.Hash()
	bucket := col.entries[h]
	for bi := range bucket {
		if bucket[bi].val.Equal(a.EqVal) {
			bucket[bi].ids = append(bucket[bi].ids, i)
			return
		}
	}
	col.entries[h] = append(bucket, acceptEntry{val: a.EqVal, ids: []int{i}})
}

// probe appends the indexes of indexed members whose equality admits t.
func (s *AcceptSet) probe(t *stream.Tuple, dst []int) []int {
	if t == nil {
		return dst
	}
	for ci := range s.cols {
		col := &s.cols[ci]
		v := t.Get(col.pos)
		if v.Kind() == stream.KindNull {
			continue
		}
		for _, entry := range col.entries[v.Hash()] {
			if entry.val.Equal(v) {
				dst = append(dst, entry.ids...)
			}
		}
	}
	return dst
}

// Visible reports whether any member's final step would see t: it is the
// union filter installed on the shared automaton's final step. Sound for
// the merged pairing modes because an invisible-to-one-member final tuple
// is a pure no-op there — visibility only gates completion enumeration,
// never shared prefix state.
func (s *AcceptSet) Visible(t *stream.Tuple) bool {
	if len(s.members) == 1 {
		return s.members[0].visible(t)
	}
	if t == nil {
		for _, mi := range s.checked {
			if s.members[mi].Filter == nil {
				return true
			}
		}
		return false
	}
	for ci := range s.cols {
		col := &s.cols[ci]
		v := t.Get(col.pos)
		if v.Kind() == stream.KindNull {
			continue
		}
		for _, entry := range col.entries[v.Hash()] {
			if !entry.val.Equal(v) {
				continue
			}
			for _, mi := range entry.ids {
				a := &s.members[mi]
				if a.Filter == nil || a.Filter(t) {
					return true
				}
			}
		}
	}
	for _, mi := range s.checked {
		a := &s.members[mi]
		if a.Filter == nil || a.Filter(t) {
			return true
		}
	}
	return false
}

// Accepted appends the IDs of members accepting the completed match m
// (ending in final tuple t) to buf, ascending, and returns it.
func (s *AcceptSet) Accepted(t *stream.Tuple, m *Match, buf []int) []int {
	if len(s.members) == 1 {
		// Singleton group (a query merged with none so far): no index probe
		// to run, no order to restore.
		if a := &s.members[0]; a.accepts(t, m) {
			buf = append(buf, a.ID)
		}
		return buf
	}
	start := len(buf)
	s.scratch = s.probe(t, s.scratch[:0])
	for _, mi := range s.scratch {
		a := &s.members[mi]
		if a.accepts(t, m) {
			buf = append(buf, a.ID)
		}
	}
	for _, mi := range s.checked {
		a := &s.members[mi]
		if a.accepts(t, m) {
			buf = append(buf, a.ID)
		}
	}
	if tail := buf[start:]; len(tail) > 1 {
		sort.Ints(tail)
	}
	return buf
}
