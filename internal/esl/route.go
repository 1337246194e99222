package esl

import (
	"fmt"
	"strings"

	"repro/internal/stream"
)

// This file implements the shared multi-query routing index. At query
// compile time the planner extracts, per input stream, the sargable
// constant-equality predicates a query enforces before it can react to a
// tuple (step filters like C1.readerid = 'R7', or a leading WHERE conjunct
// on a transducer's outer stream). Those become a streamGuard attached to
// the (query, stream) reader edge; per stream the engine folds all guards
// into a routeTable so delivery offers a tuple only to the queries
// that can possibly react. Queries without an extractable guard stay on a
// conservative fallback list and see every tuple, exactly as before.
//
// Guards are advisory: the predicates they mirror remain in the compiled
// filters, so a delivered tuple is re-checked by the query itself. The only
// obligation is that a *skipped* tuple would have been a no-op — no output,
// no state change, no error — which the extraction rules in seqplan.go and
// plan.go establish per operator.

// guardPred is one column's admission test: the tuple's value at pos must
// equal one of vals for the guard to admit via this predicate.
type guardPred struct {
	col  string // lower-cased column name, for EXPLAIN
	pos  int    // column position in the stream schema
	vals []stream.Value
}

// streamGuard is the compile-time admission test for one (query, stream)
// edge: the query can only react to a tuple when some predicate admits it.
//
// strict guards come from SEQ-family step filters and residual predicates,
// whose evaluation swallows NULL (unknown) and cross-kind comparison errors
// as "does not bind" — so NULL and incomparable tuple values are skipped.
// Non-strict guards come from transducer WHERE conjuncts, where NULL yields
// unknown (which does not short-circuit AND) and a cross-kind comparison is
// a runtime error the serial path surfaces — both must be delivered.
type streamGuard struct {
	preds  []guardPred
	strict bool
}

// add merges one (col, val) equality into the guard, unioning values on an
// already-guarded column.
func (g *streamGuard) add(col string, pos int, val stream.Value) {
	for i := range g.preds {
		if g.preds[i].pos == pos {
			for _, v := range g.preds[i].vals {
				if v.Equal(val) {
					return
				}
			}
			g.preds[i].vals = append(g.preds[i].vals, val)
			return
		}
	}
	g.preds = append(g.preds, guardPred{col: col, pos: pos, vals: []stream.Value{val}})
}

// admits reports whether the query behind this guard could react to t.
func (g *streamGuard) admits(t *stream.Tuple) bool {
	for i := range g.preds {
		p := &g.preds[i]
		tv := t.Get(p.pos)
		if !g.strict && tv.Kind() == stream.KindNull {
			return true // evaluates to unknown, not false: deliver
		}
		for _, v := range p.vals {
			c, ok := tv.Compare(v)
			if ok && c == 0 {
				return true
			}
			if !ok && !g.strict {
				return true // cross-kind '=' errors at eval time: deliver
			}
		}
	}
	return false
}

// describe renders the guard for EXPLAIN and `eslev run -stats`.
func (g *streamGuard) describe() string {
	parts := make([]string, 0, len(g.preds))
	for i := range g.preds {
		p := &g.preds[i]
		vals := make([]string, len(p.vals))
		for j, v := range p.vals {
			vals[j] = v.String()
		}
		parts = append(parts, fmt.Sprintf("%s IN (%s)", p.col, strings.Join(vals, ", ")))
	}
	return strings.Join(parts, " OR ")
}

// routeTable is one stream's dispatch index over its readers. Reader
// ordinals (positions in streamInfo.readers) are partitioned into:
//
//   - fallback: readers with no guard — always delivered, so not indexed;
//   - hash-indexed: strict single-column guards, probed by value hash so a
//     tuple finds the reacting queries in O(1) regardless of fan-out;
//   - checked: the remaining guarded readers (multi-column guards and
//     non-strict transducer guards), verified per tuple with admits.
type routeTable struct {
	checked  []int // ascending
	cols     []routeCol
	nGuarded int
	// interleaved is set when the stream has several readers and one of
	// them writes a derived stream: its rows re-enter the engine mid-run, so
	// the other readers must see the stream one tuple at a time to observe
	// the serial interleaving (deliverLocked cuts runs of one).
	interleaved bool
}

type routeCol struct {
	pos     int
	entries map[uint64][]routeEntry
}

type routeEntry struct {
	val      stream.Value
	ordinals []int
}

// buildRouteTable folds the readers' guards into a dispatch table. It is
// rebuilt on each query registration (registration is rare; dispatch is the
// hot path).
func buildRouteTable(readers []reader) *routeTable {
	rt := &routeTable{}
	byPos := map[int]int{} // column position -> index into rt.cols
	for i := range readers {
		if len(readers) > 1 && readers[i].q.target != "" {
			rt.interleaved = true
		}
		g := readers[i].guard
		if g == nil {
			continue
		}
		rt.nGuarded++
		if !g.strict || len(g.preds) != 1 {
			rt.checked = append(rt.checked, i)
			continue
		}
		p := &g.preds[0]
		ci, ok := byPos[p.pos]
		if !ok {
			ci = len(rt.cols)
			byPos[p.pos] = ci
			rt.cols = append(rt.cols, routeCol{pos: p.pos, entries: map[uint64][]routeEntry{}})
		}
		rc := &rt.cols[ci]
		for _, v := range p.vals {
			h := v.Hash()
			chain := rc.entries[h]
			found := false
			for ei := range chain {
				if chain[ei].val.Equal(v) {
					chain[ei].ordinals = append(chain[ei].ordinals, i)
					found = true
					break
				}
			}
			if !found {
				chain = append(chain, routeEntry{val: v, ordinals: []int{i}})
			}
			rc.entries[h] = chain
		}
	}
	return rt
}

// dispatchGuarded appends the ordinals of the *guarded* readers that must
// see t (hash-indexed hits plus admitting checked guards) to buf. Fallback
// readers are the caller's responsibility. Ordinals are appended unsorted
// and without duplicates (each guarded reader is indexed exactly once per
// distinct value, and a tuple equals at most one distinct value per column).
func (rt *routeTable) dispatchGuarded(readers []reader, t *stream.Tuple, buf []int) []int {
	for ci := range rt.cols {
		rc := &rt.cols[ci]
		tv := t.Get(rc.pos)
		chain := rc.entries[tv.Hash()]
		for ei := range chain {
			if chain[ei].val.Equal(tv) {
				buf = append(buf, chain[ei].ordinals...)
			}
		}
	}
	for _, i := range rt.checked {
		if readers[i].guard.admits(t) {
			buf = append(buf, i)
		}
	}
	return buf
}

// eqConstShape recognizes a `column = literal` conjunct (either operand
// order) — the sargable shape the routing index can dispatch on.
func eqConstShape(e Expr) (*ColRef, stream.Value, bool) {
	b, ok := e.(*Binary)
	if !ok || b.Op != "=" {
		return nil, stream.Null, false
	}
	if c, ok := b.L.(*ColRef); ok {
		if l, ok := b.R.(*Literal); ok {
			return c, l.Val, true
		}
	}
	if c, ok := b.R.(*ColRef); ok {
		if l, ok := b.L.(*Literal); ok {
			return c, l.Val, true
		}
	}
	return nil, stream.Null, false
}

// ConstGuard is the shape of a routing guard that makes a query *homable*
// out of process: on some stream edge, the query reacts only to tuples
// whose column Col (at schema position Pos) equals the single constant Val.
type ConstGuard struct {
	Col string
	Pos int
	Val stream.Value
}

// RouteGuard reports query q's constant-equality admission guard on the
// named stream, when it has exactly the homable shape: every reader edge q
// holds on the stream carries a strict guard with one column and one value,
// and all edges agree on both. Cluster placement uses this to register the
// query only on the node that owns hash(Val) and route the stream's tuples
// by the same column — any tuple the other nodes would receive is provably
// a no-op for q (the guard contract from this file's header).
//
// The second return is false when q does not read the stream, the edge is
// unguarded or non-strict, or the guard spans multiple columns or values
// (a query reading the stream under several aliases contributes all of them
// to one guard, so disagreeing aliases surface as multiple values here).
//
// The query's own guard map is consulted rather than the stream's reader
// list: merged SEQ plans register a hidden group query as the stream
// reader, whose guard is the union over members — per-member admission
// lives only on the Query.
func (e *Engine) RouteGuard(q *Query, streamName string) (ConstGuard, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	g := q.guards[strings.ToLower(streamName)]
	if g == nil || !g.strict || len(g.preds) != 1 || len(g.preds[0].vals) != 1 {
		return ConstGuard{}, false
	}
	p := &g.preds[0]
	return ConstGuard{Col: p.col, Pos: p.pos, Val: p.vals[0]}, true
}
