package esl

import (
	"sort"

	"repro/internal/spec"
)

// QueryStats is an observability snapshot for one continuous query.
type QueryStats struct {
	Name string
	// Emitted counts output rows since registration.
	Emitted int
	// State counts tuples/rows retained by the query's operators (window
	// buffers, pending matches, group accumulators' inputs).
	State int
	// Kind names the operator family running the query.
	Kind string
	// Quarantined reports whether panic isolation disabled the query.
	Quarantined bool
	// Routed counts tuples the routing index delivered to this query;
	// Skipped counts arrivals on its input streams the index proved the
	// query could not react to. Routed+Skipped is the scan-all delivery
	// count.
	Routed  uint64
	Skipped uint64
	// Runs counts the live partial-match runs held by a SEQ-family query.
	Runs int
	// Consistency is the query's speculation level (STRICT unless registered
	// FAST or MIDDLE through RegisterQueryOpts on a slack-configured engine).
	Consistency spec.Level
	// SpecPending / SpecRetracted gauge the speculation layer for FAST and
	// MIDDLE queries: live unconfirmed assertions and cumulative − records.
	SpecPending   int
	SpecRetracted uint64
}

// stateSizer is implemented by operators that can report retained state.
type stateSizer interface {
	stateSize() int
	kind() string
}

func (op *eventOp) stateSize() int { return op.seq.StateSize() }

func (op *eventOp) kind() string { return "event(" + op.kindName + ")" }

func (op *eventOp) runCount() int { return op.seq.RunCount() }

func (op *filterProjectOp) stateSize() int {
	n := len(op.pending)
	for _, ex := range op.exists {
		n += ex.buffer.Len()
	}
	return n
}

func (op *filterProjectOp) kind() string { return "transducer" }

func (op *aggregateOp) stateSize() int { return op.fifo.Len() + op.groups.n }

func (op *aggregateOp) kind() string { return "aggregate" }

// Stats returns a snapshot for every registered continuous query, sorted
// by name (unnamed queries sort first, in registration order).
func (e *Engine) Stats() []QueryStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	routed := make(map[*Query]uint64, len(e.queries))
	skipped := make(map[*Query]uint64, len(e.queries))
	for _, si := range e.streams {
		for i := range si.readers {
			rd := &si.readers[i]
			// A merged-group reader feeds every member of its group: each
			// member is credited the full delivery counts, exactly what its
			// own reader would have seen unmerged (the group guard is the
			// union of member guards, so routed may exceed a single member's
			// unmerged count — the skip totals stay conservative).
			if mop, ok := rd.q.op.(*mergedOp); ok {
				for _, mem := range mop.g.members {
					routed[mem.ev.q] += rd.routed
					skipped[mem.ev.q] += si.ntuples - rd.routed
				}
				continue
			}
			routed[rd.q] += rd.routed
			skipped[rd.q] += si.ntuples - rd.routed
		}
	}
	out := make([]QueryStats, 0, len(e.queries))
	for _, q := range e.queries {
		st := QueryStats{Name: q.Name, Emitted: q.emitted, Quarantined: q.quarantined,
			Routed: routed[q], Skipped: skipped[q]}
		if s, ok := q.op.(stateSizer); ok {
			st.State = s.stateSize()
			st.Kind = s.kind()
		}
		if rc, ok := q.op.(interface{ runCount() int }); ok {
			st.Runs = rc.runCount()
		}
		if e.spc != nil {
			if sq := e.spc.find(q); sq != nil {
				st.Consistency = sq.level
				rs := sq.rec.Stats()
				st.SpecPending = rs.Pending
				st.SpecRetracted = rs.Retracted
			}
		}
		out = append(out, st)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
