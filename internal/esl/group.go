package esl

import (
	"fmt"
	"slices"

	"repro/internal/stream"
)

// groupTable is the package's one exact keyed table. It holds the groups
// of an aggregation, the multiset of each DISTINCT aggregate's argument
// rows, and the rows a DISTINCT output stage has passed. A key row goes to
// a bucket by hashRow and is compared within the bucket by Value.Equal, so
// different values whose hashes collide stay apart.
type groupTable struct {
	buckets map[uint64][]*group
	n       int
}

// group is one groupTable entry: its key row and multiplicity, plus, for
// an aggregation's groups, the running accumulators and each DISTINCT
// aggregate's multiset (empty for the other aggregates).
type group struct {
	key      []stream.Value
	n        int
	accs     []Accumulator
	distinct []groupTable
	// ord is the entry's position in the table's last save; a window FIFO
	// names its rows' groups by it.
	ord int
}

// get returns key's entry, adding an empty one (n = 0) with its own copy
// of key when key is new.
func (t *groupTable) get(key []stream.Value) (g *group, fresh bool) {
	return t.getHashed(hashRow(key), key)
}

func (t *groupTable) getHashed(h uint64, key []stream.Value) (g *group, fresh bool) {
	for _, g := range t.buckets[h] {
		if rowsEqual(g.key, key) {
			return g, false
		}
	}
	if t.buckets == nil {
		t.buckets = make(map[uint64][]*group)
	}
	g = &group{key: slices.Clone(key)}
	t.buckets[h] = append(t.buckets[h], g)
	t.n++
	return g, true
}

// add counts one more occurrence of key and reports whether it is the
// first.
func (t *groupTable) add(key []stream.Value) bool {
	g, fresh := t.get(key)
	g.n++
	return fresh
}

// remove counts one occurrence of key away and reports whether it was the
// last, which takes the entry out of the table.
func (t *groupTable) remove(key []stream.Value) (bool, error) {
	h := hashRow(key)
	for i, g := range t.buckets[h] {
		if !rowsEqual(g.key, key) {
			continue
		}
		if g.n--; g.n > 0 {
			return false, nil
		}
		if t.n--; len(t.buckets[h]) == 1 {
			delete(t.buckets, h)
		} else {
			t.buckets[h] = slices.Delete(t.buckets[h], i, i+1)
		}
		return true, nil
	}
	return false, fmt.Errorf("esl: DISTINCT removal of absent value %v", key)
}

func hashRow(vals []stream.Value) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, v := range vals {
		h = (h ^ v.Hash()) * prime
	}
	return h
}

func rowsEqual(a, b []stream.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// outputStage applies a query's DISTINCT and LIMIT to the rows it emits.
// Continuous filter-project and aggregate queries and the ad-hoc DISTINCT
// all pass their rows through one.
type outputStage struct {
	open     bool // neither DISTINCT nor LIMIT: every row passes
	distinct bool
	limit    int // -1: no LIMIT
	emitted  int
	seen     groupTable
}

func newOutputStage(distinct bool, limit int) outputStage {
	return outputStage{open: !distinct && limit < 0, distinct: distinct, limit: limit}
}

// admit reports whether a row passes: it is new to a DISTINCT query and
// within the LIMIT. A query with neither pays one branch.
func (s *outputStage) admit(vals []stream.Value) bool {
	return s.open || s.pass(vals)
}

func (s *outputStage) pass(vals []stream.Value) bool {
	if s.limit >= 0 && s.emitted >= s.limit {
		return false
	}
	if s.distinct && !s.seen.add(vals) {
		return false
	}
	s.emitted++
	return true
}
