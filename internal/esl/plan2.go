package esl

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/db"
	"repro/internal/stream"
	"repro/internal/window"
)

// hasAggregates reports whether the query aggregates: it groups, or its
// select list or HAVING clause calls an aggregate.
func (e *Engine) hasAggregates(sel *Select) bool {
	return len(sel.GroupBy) > 0 || len(e.aggregateCalls(sel)) > 0
}

// aggregateCalls lists the distinct aggregate call sites (built-in, UDA, or
// any f(*)) of the select list and HAVING, in order of appearance.
func (e *Engine) aggregateCalls(sel *Select) []*Call {
	var calls []*Call
	seen := map[*Call]bool{}
	visit := func(n Expr) {
		if c, ok := n.(*Call); ok && (c.StarArg || e.aggs.Has(c.Name)) && !seen[c] {
			seen[c] = true
			calls = append(calls, c)
		}
	}
	for _, item := range sel.Items {
		if !item.Star {
			walkExpr(item.Expr, visit)
		}
	}
	walkExpr(sel.Having, visit)
	return calls
}

// aggSpec is one aggregate call site within the projection/HAVING.
type aggSpec struct {
	call     *Call
	args     []evalFn // nil for COUNT(*)
	factory  AggFactory
	distinct bool
}

// groupState is the running state for one GROUP BY key.
type groupState struct {
	keyVals []stream.Value
	accs    []Accumulator
	// seen supports DISTINCT aggregates: per-agg value multiset.
	seen []map[uint64]int
	n    int
}

// winEntry remembers the per-aggregate argument values of a buffered tuple
// (and its group) so eviction can incrementally Remove them.
type winEntry struct {
	group *groupState
	args  [][]stream.Value
}

// aggregateOp implements continuous aggregation: cumulative when no window
// is declared (emitting the running value per arrival, as Example 3's
// running EPC count), windowed when the FROM item carries a RANGE/ROWS
// window.
type aggregateOp struct {
	e     *Engine
	q     *Query
	alias string
	where boolFn
	win   *WindowClause

	groupBy []evalFn
	aggs    []aggSpec
	// proj and having read the triggering tuple (slot 0) and the emitting
	// group's accumulators.
	proj    *projection
	having  boolFn
	removal bool // all accumulators support Remove (incremental windows)

	groups map[uint64][]*groupState
	// window buffers (time or rows) of winEntry + the triggering tuple.
	timeBuf *window.TimeBuffer
	entries map[*stream.Tuple]*winEntry
	rowBuf  []*stream.Tuple
}

func (e *Engine) compileAggregate(sel *Select, outer FromItem, q *Query) (queryOp, error) {
	si := e.streams[strings.ToLower(outer.Source)]
	op := &aggregateOp{
		e:      e,
		q:      q,
		alias:  outer.Alias,
		win:    outer.Window,
		groups: make(map[uint64][]*groupState),
	}
	for _, item := range sel.Items {
		if item.Star {
			return nil, fmt.Errorf("esl: SELECT * cannot be combined with aggregates")
		}
	}
	aggIdx := map[*Call]int{}
	for i, c := range e.aggregateCalls(sel) {
		factory, ok := e.aggs.Lookup(c.Name)
		if !ok { // f(*) of an unknown f counts rows
			factory, _ = e.aggs.Lookup("COUNT")
		}
		aggIdx[c] = i
		op.aggs = append(op.aggs, aggSpec{call: c, factory: factory, distinct: c.Distinct})
	}
	if len(op.aggs) == 0 && len(sel.GroupBy) == 0 {
		return nil, fmt.Errorf("esl: aggregate query without aggregate calls")
	}
	// WHERE, GROUP BY and aggregate arguments read the arriving tuple; the
	// select list and HAVING also read the emitting group's accumulators.
	schemas := []aliasSchema{{alias: outer.Alias, schema: si.schema}}
	sc := newScope(e.funcs, schemas...)
	var err error
	if op.where, err = compileOptBool(sel.Where, sc); err != nil {
		return nil, err
	}
	if op.groupBy, err = compileList(sel.GroupBy, sc); err != nil {
		return nil, err
	}
	for i := range op.aggs {
		if a := &op.aggs[i]; !a.call.StarArg {
			if a.args, err = compileList(a.call.Args, sc); err != nil {
				return nil, err
			}
		}
	}
	asc := newScope(e.funcs, schemas...)
	asc.aggs = aggIdx
	if op.having, err = compileOptBool(sel.Having, asc); err != nil {
		return nil, err
	}
	if op.proj, err = compileProjection(sel, schemas, asc); err != nil {
		return nil, err
	}
	// Incremental window maintenance requires every accumulator to support
	// removal; probe one instance of each.
	op.removal = true
	for _, a := range op.aggs {
		if _, ok := a.factory().(Remover); !ok {
			op.removal = false
			break
		}
	}
	if op.win != nil {
		if op.win.HasFollowing {
			return nil, fmt.Errorf("esl: FOLLOWING windows on aggregates are not supported")
		}
		op.timeBuf = &window.TimeBuffer{}
		op.entries = make(map[*stream.Tuple]*winEntry)
	}
	return op, nil
}

func (op *aggregateOp) push(aliases []string, t *stream.Tuple) error {
	if !containsFold(aliases, op.alias) {
		return nil
	}
	f := getFrame(1, nil)
	err := op.pushOne(f, t)
	putFrame(f)
	return err
}

// timeSensitive: aggregates emit on arrival only; advance merely trims
// window state that bind-time checks already exclude.
func (op *aggregateOp) timeSensitive() bool { return false }

// pushBatch folds a run of arrivals into the running groups with one pooled
// frame. Per-tuple semantics — window eviction before each emission, one
// output row per qualifying arrival — are unchanged; only frame setup is
// amortized across the run.
func (op *aggregateOp) pushBatch(aliases []string, b *stream.Batch) error {
	if !containsFold(aliases, op.alias) {
		return nil
	}
	e := op.e
	f := getFrame(1, nil)
	defer putFrame(f)
	for _, t := range b.Tuples {
		if t.TS > e.now {
			e.now = t.TS
		}
		if err := op.pushOne(f, t); err != nil {
			return err
		}
	}
	return nil
}

// pushOne processes one qualifying arrival. f is caller-owned scratch: the
// tuple slot is rebound per tuple and the accumulators per emission, so the
// batch path can reuse one frame across a whole run.
func (op *aggregateOp) pushOne(f *frame, t *stream.Tuple) error {
	f.slots[0] = t.Vals
	if ok, err := holdsOpt(op.where, f); err != nil || !ok {
		return err
	}
	// Group key.
	keyVals, keyHash, err := op.groupKey(f)
	if err != nil {
		return err
	}
	gs := op.groupFor(keyHash, keyVals)
	// Evaluate aggregate arguments once.
	args := make([][]stream.Value, len(op.aggs))
	for i, a := range op.aggs {
		if a.call.StarArg {
			continue
		}
		vals, err := evalList(a.args, f)
		if err != nil {
			return err
		}
		args[i] = vals
	}
	if err := op.addToGroup(gs, args); err != nil {
		return err
	}
	// Window maintenance.
	if op.win != nil {
		if op.win.Rows {
			op.rowBuf = append(op.rowBuf, t)
			op.entries[t] = &winEntry{group: gs, args: args}
			if len(op.rowBuf) > op.win.NRows {
				old := op.rowBuf[0]
				op.rowBuf = op.rowBuf[1:]
				if err := op.evictTuple(old); err != nil {
					return err
				}
			}
		} else {
			if err := op.timeBuf.Add(t); err != nil {
				return err
			}
			op.entries[t] = &winEntry{group: gs, args: args}
			if err := op.evictBefore(t.TS.Add(-op.win.Preceding)); err != nil {
				return err
			}
		}
	}
	// Emit the affected group's current row.
	return op.emitGroup(gs, f, t.TS)
}

func (op *aggregateOp) advance(ts stream.Timestamp) error {
	// Time windows also shrink as event time advances without arrivals;
	// ESL emits on arrival, so eviction here only trims state.
	if op.win != nil && !op.win.Rows {
		return op.evictBefore(ts.Add(-op.win.Preceding))
	}
	return nil
}

func (op *aggregateOp) evictBefore(cut stream.Timestamp) error {
	var dead []*stream.Tuple
	op.timeBuf.Each(func(t *stream.Tuple) bool {
		if t.TS < cut {
			dead = append(dead, t)
			return true
		}
		return false
	})
	for _, t := range dead {
		op.timeBuf.Remove(t)
		if err := op.evictTuple(t); err != nil {
			return err
		}
	}
	return nil
}

func (op *aggregateOp) evictTuple(t *stream.Tuple) error {
	entry := op.entries[t]
	delete(op.entries, t)
	if entry == nil {
		return nil
	}
	return op.removeFromGroup(entry.group, entry.args)
}

func (op *aggregateOp) groupKey(f *frame) ([]stream.Value, uint64, error) {
	if len(op.groupBy) == 0 {
		return nil, 0, nil
	}
	vals, err := evalList(op.groupBy, f)
	if err != nil {
		return nil, 0, err
	}
	return vals, hashRow(vals), nil
}

func (op *aggregateOp) groupFor(hash uint64, keyVals []stream.Value) *groupState {
	for _, gs := range op.groups[hash] {
		if rowsEqual(gs.keyVals, keyVals) {
			return gs
		}
	}
	gs := &groupState{keyVals: keyVals}
	for _, a := range op.aggs {
		gs.accs = append(gs.accs, a.factory())
		gs.seen = append(gs.seen, nil)
	}
	op.groups[hash] = append(op.groups[hash], gs)
	return gs
}

func (op *aggregateOp) addToGroup(gs *groupState, args [][]stream.Value) error {
	gs.n++
	for i, acc := range gs.accs {
		if op.aggs[i].distinct {
			if gs.seen[i] == nil {
				gs.seen[i] = map[uint64]int{}
			}
			h := hashRow(args[i])
			gs.seen[i][h]++
			if gs.seen[i][h] > 1 {
				continue
			}
		}
		if err := acc.Add(args[i]); err != nil {
			return err
		}
	}
	return nil
}

func (op *aggregateOp) removeFromGroup(gs *groupState, args [][]stream.Value) error {
	if !op.removal {
		return fmt.Errorf("esl: windowed aggregate lacks removal support")
	}
	gs.n--
	for i, acc := range gs.accs {
		if op.aggs[i].distinct {
			h := hashRow(args[i])
			gs.seen[i][h]--
			if gs.seen[i][h] > 0 {
				continue
			}
			delete(gs.seen[i], h)
		}
		if err := acc.(Remover).Remove(args[i]); err != nil {
			return err
		}
	}
	return nil
}

// emitGroup projects and emits the current row for one group: aggregate
// call sites read the group's accumulators through the frame.
func (op *aggregateOp) emitGroup(gs *groupState, f *frame, ts stream.Timestamp) error {
	f.accs = gs.accs
	if ok, err := holdsOpt(op.having, f); err != nil || !ok {
		return err
	}
	vals, err := op.proj.build(f)
	if err != nil {
		return err
	}
	return op.q.sink(op.proj.row(vals, ts))
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

// ---- snapshot (ad-hoc) queries ---------------------------------------------

// Query runs an ad-hoc snapshot SELECT over tables and retained stream
// history: the "current status" inquiries of §2.1, answered without
// persisting the stream.
func (e *Engine) Query(sql string) ([]Row, error) {
	s, err := ParseOne(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := s.(*Select)
	if !ok {
		return nil, fmt.Errorf("esl: Query needs a SELECT, got %T", s)
	}
	return e.snapshotSelect(sel)
}

// QueryAsOf runs an ad-hoc snapshot SELECT against historical table state.
// The anchor is an AS OF body — "LSN 2000", "TIMESTAMP 30 SECONDS", or just
// "30 SECONDS" — and overrides any AS OF clause written in the query.
func (e *Engine) QueryAsOf(sql, anchor string) ([]Row, error) {
	s, err := ParseOne(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := s.(*Select)
	if !ok {
		return nil, fmt.Errorf("esl: QueryAsOf needs a SELECT, got %T", s)
	}
	if anchor != "" {
		ao, err := ParseAsOf(anchor)
		if err != nil {
			return nil, err
		}
		sel.AsOf = ao
	}
	return e.snapshotSelect(sel)
}

// resolveAsOfLocked maps an AS OF clause to a table version. A nil clause
// (or an anchor strictly after the present) reads the head; otherwise the
// anchor resolves DOWN to the newest version cut at or before it —
// checkpoint granularity, exactly the states a restored replica could also
// serve. An anchor exactly at a checkpoint's LSN returns that cut even
// when the head has since moved through non-journaled DML: AS OF names the
// recorded state, not whatever came after it at the same journal position.
func (e *Engine) resolveAsOfLocked(tbl *db.Table, ao *AsOfClause) (*db.Version, error) {
	if ao == nil {
		return tbl.Head(), nil
	}
	if ao.HasLSN {
		if ao.LSN > e.dur.LSN() {
			return tbl.Head(), nil
		}
		if v, ok := tbl.AsOf(ao.LSN); ok {
			return v, nil
		}
		if ao.LSN >= e.dur.LSN() {
			return tbl.Head(), nil // anchor is "now" and nothing was ever cut
		}
	} else {
		if ao.TS > e.now {
			return tbl.Head(), nil
		}
		if v, ok := tbl.AsOfTime(ao.TS); ok {
			return v, nil
		}
		if ao.TS >= e.now {
			return tbl.Head(), nil
		}
	}
	if oldest, ok := tbl.OldestLSN(); ok {
		return nil, fmt.Errorf("esl: no retained version of table %s that old (oldest checkpoint is lsn %d)",
			tbl.Schema().Name(), oldest)
	}
	return nil, fmt.Errorf("esl: table %s has no checkpointed versions; AS OF needs a checkpoint (enable journaling or call CheckpointNow)",
		tbl.Schema().Name())
}

// snapshotSelect evaluates a SELECT once against current state.
func (e *Engine) snapshotSelect(sel *Select) ([]Row, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.now

	// Materialize each FROM source's rows.
	var sources [][][]stream.Value
	var schemas []aliasSchema
	for _, f := range sel.From {
		if si, isStream := e.streams[strings.ToLower(f.Source)]; isStream {
			if sel.AsOf != nil {
				return nil, fmt.Errorf("esl: AS OF reads table history; stream source %q has no versioned past", f.Source)
			}
			if si.history == nil {
				return nil, fmt.Errorf("esl: stream %s has no retained history; call RetainHistory or use TABLE(%s OVER (...)) on a retained stream", f.Source, f.Source)
			}
			lo := stream.MinTimestamp
			if f.Window != nil && !f.Window.Rows {
				lo = now.Add(-f.Window.Preceding)
			}
			var rows [][]stream.Value
			si.history.EachInRange(lo, now, func(t *stream.Tuple) bool {
				rows = append(rows, t.Vals)
				return true
			})
			if f.Window != nil && f.Window.Rows && len(rows) > f.Window.NRows {
				rows = rows[len(rows)-f.Window.NRows:]
			}
			sources = append(sources, rows)
			schemas = append(schemas, aliasSchema{alias: f.Alias, schema: si.schema})
			continue
		}
		if tbl, isTable := e.store.Get(f.Source); isTable {
			// Pin one version — the head, or the AS OF anchor's checkpoint
			// cut — and read it lock-free; no row copy is taken.
			ver, err := e.resolveAsOfLocked(tbl, sel.AsOf)
			if err != nil {
				return nil, err
			}
			ver.Pin()
			defer ver.Unpin()
			rows := make([][]stream.Value, 0, ver.Len())
			ver.Each(func(r *db.Row) bool {
				rows = append(rows, r.Vals)
				return true
			})
			sources = append(sources, rows)
			schemas = append(schemas, aliasSchema{alias: f.Alias, schema: tbl.Schema()})
			continue
		}
		return nil, fmt.Errorf("esl: unknown source %q", f.Source)
	}

	// Source i is frame slot i. WHERE, GROUP BY and aggregate arguments
	// read the rows; the select list and HAVING also read the group's
	// accumulators when aggregating.
	sc := newScope(e.funcs, schemas...)
	where, err := compileOptBool(sel.Where, sc)
	if err != nil {
		return nil, err
	}
	aggCalls := e.aggregateCalls(sel)
	aggregating := len(aggCalls) > 0 || len(sel.GroupBy) > 0
	asc := sc
	var groupBy []evalFn
	var having boolFn
	aggArgs := make([][]evalFn, len(aggCalls))
	if aggregating {
		if groupBy, err = compileList(sel.GroupBy, sc); err != nil {
			return nil, err
		}
		asc = newScope(e.funcs, schemas...)
		asc.aggs = map[*Call]int{}
		for i, c := range aggCalls {
			asc.aggs[c] = i
			if !c.StarArg {
				if aggArgs[i], err = compileList(c.Args, sc); err != nil {
					return nil, err
				}
			}
		}
		if having, err = compileOptBool(sel.Having, asc); err != nil {
			return nil, err
		}
	}
	proj, err := compileProjection(sel, schemas, asc)
	if err != nil {
		return nil, err
	}

	// Enumerate the cross product, filter, and either project per row or
	// feed aggregates. A group projects against the rows of its first input.
	var out []Row
	var groups []*groupState
	groupByHash := map[uint64]*groupState{}
	groupRows := map[*groupState][][]stream.Value{}
	f := getFrame(len(sources), nil)
	defer putFrame(f)

	var iterate func(i int) error
	iterate = func(i int) error {
		if i < len(sources) {
			for _, row := range sources[i] {
				f.slots[i] = row
				if err := iterate(i + 1); err != nil {
					return err
				}
			}
			return nil
		}
		if ok, err := holdsOpt(where, f); err != nil || !ok {
			return err
		}
		if !aggregating {
			vals, err := proj.build(f)
			if err != nil {
				return err
			}
			out = append(out, proj.row(vals, now))
			return nil
		}
		// Aggregating: accumulate per group.
		var keyVals []stream.Value
		if len(groupBy) > 0 {
			keyVals, err = evalList(groupBy, f)
			if err != nil {
				return err
			}
		}
		h := hashRow(keyVals)
		gs := groupByHash[h]
		if gs == nil || !rowsEqual(gs.keyVals, keyVals) {
			gs = &groupState{keyVals: keyVals}
			for range aggCalls {
				factory, _ := e.aggs.Lookup("COUNT")
				gs.accs = append(gs.accs, factory())
			}
			for i, c := range aggCalls {
				if !c.StarArg {
					if factory, ok := e.aggs.Lookup(c.Name); ok {
						gs.accs[i] = factory()
					}
				}
			}
			groupByHash[h] = gs
			groups = append(groups, gs)
			groupRows[gs] = append([][]stream.Value(nil), f.slots...)
		}
		for i, c := range aggCalls {
			var args []stream.Value
			if !c.StarArg {
				args, err = evalList(aggArgs[i], f)
				if err != nil {
					return err
				}
			}
			if err := gs.accs[i].Add(args); err != nil {
				return err
			}
		}
		return nil
	}
	if err := iterate(0); err != nil {
		return nil, err
	}

	if aggregating {
		if len(groups) == 0 && len(sel.GroupBy) == 0 {
			// Empty input still yields one row of empty aggregates.
			gs := &groupState{}
			for _, c := range aggCalls {
				factory, ok := e.aggs.Lookup(c.Name)
				if !ok {
					factory, _ = e.aggs.Lookup("COUNT")
				}
				gs.accs = append(gs.accs, factory())
			}
			groups = append(groups, gs)
		}
		for _, gs := range groups {
			clear(f.slots)
			copy(f.slots, groupRows[gs]) // none for the empty-input group: NULLs
			f.accs = gs.accs
			ok, err := holdsOpt(having, f)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			vals, err := proj.build(f)
			if err != nil {
				return nil, err
			}
			out = append(out, proj.row(vals, now))
		}
	}

	if sel.Distinct {
		seen := map[uint64]bool{}
		dedup := out[:0]
		for _, r := range out {
			h := hashRow(r.Vals)
			if seen[h] {
				continue
			}
			seen[h] = true
			dedup = append(dedup, r)
		}
		out = dedup
	}
	if len(sel.OrderBy) > 0 {
		keys, err := resolveOrderColumns(sel, proj)
		if err != nil {
			return nil, err
		}
		sort.SliceStable(out, func(i, j int) bool {
			for k, col := range keys {
				c, ok := out[i].Vals[col].Compare(out[j].Vals[col])
				if !ok || c == 0 {
					continue
				}
				if sel.OrderBy[k].Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	} else if aggregating && len(sel.GroupBy) > 0 {
		// Deterministic output order for grouped results.
		sort.SliceStable(out, func(i, j int) bool {
			for k := range out[i].Vals {
				c, ok := out[i].Vals[k].Compare(out[j].Vals[k])
				if ok && c != 0 {
					return c < 0
				}
			}
			return false
		})
	}
	if sel.Limit >= 0 && len(out) > sel.Limit {
		out = out[:sel.Limit]
	}
	return out, nil
}

// resolveOrderColumns maps ORDER BY keys onto projected columns: by output
// name, or by textual equality with a projected expression. Ordering by an
// unprojected expression is rejected (the row bindings are gone by sort
// time).
func resolveOrderColumns(sel *Select, proj *projection) ([]int, error) {
	cols := make([]int, len(sel.OrderBy))
	for i, o := range sel.OrderBy {
		found := -1
		if ref, ok := o.Expr.(*ColRef); ok && ref.Qualifier == "" {
			for j, name := range proj.names {
				if strings.EqualFold(name, ref.Name) {
					found = j
					break
				}
			}
		}
		if found < 0 {
			want := ExprString(o.Expr)
			for j, item := range proj.items {
				if item.expr != nil && ExprString(item.expr) == want {
					found = j
					break
				}
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("esl: ORDER BY key %s must appear in the select list", ExprString(o.Expr))
		}
		cols[i] = found
	}
	return cols, nil
}
