package esl

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/db"
	"repro/internal/stream"
	"repro/internal/window"
)

// compile turns a SELECT into a continuous-query runtime. It returns the
// operator and the streams the engine must route to it (stream name ->
// FROM aliases). Caller holds the engine lock.
func (e *Engine) compile(sel *Select, q *Query) (queryOp, map[string][]string, error) {
	if len(sel.OrderBy) > 0 {
		return nil, nil, fmt.Errorf("esl: ORDER BY applies to snapshot queries only; a continuous stream has no end to order at")
	}
	if sel.AsOf != nil {
		return nil, nil, fmt.Errorf("esl: AS OF applies to snapshot queries only; a continuous query always reads current table state")
	}
	// Temporal event queries are handled by the event planner.
	if se := findSeqExpr(sel.Where); se != nil {
		return e.compileEventQuery(sel, se, q)
	}

	// Classify FROM items.
	var streamItems, tableItems []FromItem
	for _, f := range sel.From {
		if _, ok := e.streams[strings.ToLower(f.Source)]; ok {
			streamItems = append(streamItems, f)
		} else if _, ok := e.store.Get(f.Source); ok {
			tableItems = append(tableItems, f)
		} else {
			return nil, nil, fmt.Errorf("esl: unknown stream or table %q", f.Source)
		}
	}
	if len(streamItems) == 0 {
		return nil, nil, fmt.Errorf("esl: continuous query needs a stream source")
	}
	if len(streamItems) > 1 {
		return nil, nil, fmt.Errorf("esl: joining multiple streams requires a SEQ-family operator (see §3 of the paper)")
	}
	outer := streamItems[0]
	si := e.streams[strings.ToLower(outer.Source)]

	aliasSchemas := []aliasSchema{{alias: outer.Alias, schema: si.schema}}
	for _, ti := range tableItems {
		tbl, _ := e.store.Get(ti.Source)
		aliasSchemas = append(aliasSchemas, aliasSchema{alias: ti.Alias, schema: tbl.Schema()})
	}

	if e.hasAggregates(sel) {
		if len(tableItems) > 0 {
			return nil, nil, fmt.Errorf("esl: aggregates over stream-table joins are not supported")
		}
		op, err := e.compileAggregate(sel, outer, q)
		if err != nil {
			return nil, nil, err
		}
		return op, map[string][]string{outer.Source: {outer.Alias}}, nil
	}

	op := &filterProjectOp{
		e:          e,
		q:          q,
		outerAlias: outer.Alias,
		distinct:   sel.Distinct,
		limit:      sel.Limit,
		nslots:     len(aliasSchemas),
	}
	inputs := map[string][]string{outer.Source: {outer.Alias}}
	// The outer tuple is slot 0 and joined table i is slot i+1; the WHERE
	// clause and the projection see all of them.
	sc := newScope(e.funcs, aliasSchemas...)

	// Stream-table lookup joins (context retrieval). A join key evaluates
	// before its table is bound, against the outer tuple and earlier tables.
	for i, ti := range tableItems {
		tbl, _ := e.store.Get(ti.Source)
		jt := joinTable{alias: ti.Alias, tbl: tbl}
		var eqExpr Expr
		jt.eqCol, eqExpr = findEqualityLookup(sel.Where, ti.Alias, tbl.Schema())
		if jt.eqCol != "" {
			jt.eqPos, _ = tbl.Schema().Col(jt.eqCol)
			var err error
			if jt.eqKey, err = compileExpr(eqExpr, newScope(e.funcs, aliasSchemas[:i+1]...)); err != nil {
				return nil, nil, err
			}
		}
		op.tables = append(op.tables, jt)
	}

	// Plan EXISTS sub-queries, then compile the clauses that call them.
	if err := e.planExists(sel.Where, op, inputs, sc); err != nil {
		return nil, nil, err
	}
	var err error
	if op.where, err = compileOptBool(sel.Where, sc); err != nil {
		return nil, nil, err
	}
	if op.proj, err = compileProjection(sel, aliasSchemas, sc); err != nil {
		return nil, nil, err
	}

	// A stateless filter-project (no table joins, no EXISTS state, no
	// DISTINCT/LIMIT bookkeeping, no deferral) reads nothing but the tuple
	// itself. That admits the fused batch kernel, and — since any
	// partitioning of its input reproduces the serial output — marks the
	// query shardable with no key constraint ("indifferent"). DISTINCT,
	// LIMIT, table joins and EXISTS sub-queries all observe global state and
	// stay serial and unfused.
	op.fused = len(op.tables) == 0 && len(op.exists) == 0 && len(op.tableExists) == 0 &&
		!op.distinct && op.limit < 0 && !op.deferred
	if op.fused {
		q.shard = Shardability{Shardable: true}
	}

	// Routing-index guard: only the FIRST WHERE conjunct is sargable here.
	// AND short-circuits solely on a definitively-false left operand, so a
	// failing first conjunct provably suppresses every later conjunct —
	// including ones that would error — making the skip serial-equivalent.
	// The guard is non-strict: a NULL tuple value makes the conjunct unknown
	// (later conjuncts still run and may error) and a cross-kind '=' is
	// itself a runtime error, so both must be delivered, not skipped.
	if sel.Where != nil && len(inputs[outer.Source]) == 1 {
		var conj []Expr
		splitConjuncts(sel.Where, &conj)
		if ref, val, ok := eqConstShape(conj[0]); ok && val.Kind() != stream.KindNull {
			onOuter := strings.EqualFold(ref.Qualifier, outer.Alias) ||
				(ref.Qualifier == "" && len(op.tables) == 0 && len(op.exists) == 0 && len(op.tableExists) == 0)
			if onOuter {
				if pos, ok := si.schema.Col(ref.Name); ok {
					g := &streamGuard{strict: false}
					g.add(strings.ToLower(ref.Name), pos, val)
					q.guards = map[string]*streamGuard{strings.ToLower(outer.Source): g}
				}
			}
		}
	}
	return op, inputs, nil
}

type aliasSchema struct {
	alias  string
	schema *stream.Schema
}

// ---- projections -----------------------------------------------------------

type projection struct {
	names []string
	// idx maps lower-cased output names to positions (first occurrence wins,
	// matching Row.Get's former first-EqualFold-match scan). Built once at
	// compile time and shared by every Row this projection emits.
	idx map[string]int
	// items produce one value each; star items expand in place.
	items []projItem
}

// buildNameIndex precomputes the lowercase name→position map for Row.Get.
func buildNameIndex(names []string) map[string]int {
	idx := make(map[string]int, len(names))
	for i, n := range names {
		ln := strings.ToLower(n)
		if _, ok := idx[ln]; !ok {
			idx[ln] = i
		}
	}
	return idx
}

// row assembles an output Row carrying the shared name index.
func (p *projection) row(vals []stream.Value, ts stream.Timestamp) Row {
	return Row{Names: p.names, Vals: vals, TS: ts, idx: p.idx}
}

// projItem is one select item: a compiled expression, or (fn nil) a star
// expanding every column of each in-scope alias.
type projItem struct {
	expr Expr
	fn   evalFn
	star []starSlot
}

// starSlot is one alias of a star expansion: its frame slot (-1 when the
// alias is not bound, which projects NULLs) and its column count.
type starSlot struct {
	slot, ncols int
}

// projNames lists a select list's output column names.
func projNames(sel *Select, schemas []aliasSchema) []string {
	var names []string
	for i, item := range sel.Items {
		if item.Star {
			for _, as := range schemas {
				for _, f := range as.schema.Fields() {
					names = append(names, f.Name)
				}
			}
			continue
		}
		names = append(names, projName(item, i))
	}
	return names
}

// compileProjection compiles the select list in sc; star items expand the
// given aliases in order.
func compileProjection(sel *Select, schemas []aliasSchema, sc *scope) (*projection, error) {
	p := &projection{names: projNames(sel, schemas)}
	p.idx = buildNameIndex(p.names)
	for _, item := range sel.Items {
		if item.Star {
			var star []starSlot
			for _, as := range schemas {
				star = append(star, starSlot{slot: sc.slot(as.alias), ncols: as.schema.Len()})
			}
			p.items = append(p.items, projItem{star: star})
			continue
		}
		fn, err := compileExpr(item.Expr, sc)
		if err != nil {
			return nil, err
		}
		p.items = append(p.items, projItem{expr: item.Expr, fn: fn})
	}
	return p, nil
}

func projName(item SelectItem, i int) string {
	if item.As != "" {
		return item.As
	}
	switch x := item.Expr.(type) {
	case *ColRef:
		return x.Name
	case *PrevRef:
		return x.Name
	case *StarAgg:
		if x.Name == "" {
			return strings.ToLower(x.Fn) + "_" + x.Alias
		}
		return strings.ToLower(x.Fn) + "_" + x.Name
	case *Call:
		return strings.ToLower(x.Name)
	default:
		return fmt.Sprintf("col%d", i+1)
	}
}

// build evaluates the projection over frame f.
func (p *projection) build(f *frame) ([]stream.Value, error) {
	return p.buildInto(make([]stream.Value, 0, len(p.names)), f)
}

// buildInto appends the projected row (always len(p.names) values) to dst;
// batch kernels pass slices of a shared arena so a whole run of output rows
// costs one allocation.
func (p *projection) buildInto(dst []stream.Value, f *frame) ([]stream.Value, error) {
	for _, item := range p.items {
		if item.fn == nil {
			for _, s := range item.star {
				var row []stream.Value
				if s.slot >= 0 {
					row = f.slots[s.slot]
				}
				for c := 0; c < s.ncols; c++ {
					dst = append(dst, slotValue(row, c))
				}
			}
			continue
		}
		v, err := item.fn(f)
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// projectionNames infers output column names (for derived-stream schemas).
// Caller holds the engine lock.
func (e *Engine) projectionNames(sel *Select) ([]string, error) {
	var schemas []aliasSchema
	for _, f := range sel.From {
		if si, ok := e.streams[strings.ToLower(f.Source)]; ok {
			schemas = append(schemas, aliasSchema{alias: f.Alias, schema: si.schema})
		} else if tbl, ok := e.store.Get(f.Source); ok {
			schemas = append(schemas, aliasSchema{alias: f.Alias, schema: tbl.Schema()})
		} else {
			return nil, fmt.Errorf("unknown source %q", f.Source)
		}
	}
	seen := map[string]int{}
	names := projNames(sel, schemas)
	for i, n := range names {
		key := strings.ToLower(n)
		seen[key]++
		if seen[key] > 1 {
			n = fmt.Sprintf("%s_%d", n, seen[key])
		}
		names[i] = n
	}
	return names, nil
}

// ---- filter/project (+ lookup join, + EXISTS) ------------------------------

type joinTable struct {
	alias string
	tbl   *db.Table
	// eqCol/eqKey, when set, drive an index lookup instead of a scan: the
	// WHERE clause contains alias.eqCol = key with key free of inner
	// references. eqPos is eqCol's resolved column position.
	eqCol string
	eqKey evalFn
	eqPos int
	// ver is the pinned table version probes read (set by pinTables once per
	// tuple, or once per batch when no registered query writes tables), and
	// buf is the reused probe buffer — together they make the join hot path
	// lock-free and allocation-free at steady state.
	ver *db.Version
	buf []*db.Row
}

// existsState is one windowed stream sub-query inside [NOT] EXISTS.
type existsState struct {
	node   *Exists
	alias  string // inner FROM alias
	win    *WindowClause
	buffer window.TimeBuffer
}

// pendingOuter is an outer tuple whose decision is deferred until its
// FOLLOWING window closes (Example 8).
type pendingOuter struct {
	t        *stream.Tuple
	deadline stream.Timestamp
}

type filterProjectOp struct {
	e          *Engine
	q          *Query
	outerAlias string
	where      boolFn // nil without a WHERE clause
	proj       *projection
	distinct   bool
	limit      int
	emitted    int
	seen       map[uint64]int
	// nslots is the frame size: the outer tuple plus one slot per table.
	nslots int

	tables      []joinTable
	exists      []*existsState
	tableExists []*tableExistsState

	// deferred is set when any EXISTS window has a FOLLOWING component:
	// outer tuples wait in pending until event time passes their deadline.
	deferred bool
	maxFol   time.Duration
	maxPre   time.Duration
	pending  []pendingOuter

	// fused marks a stateless filter-project eligible for the vectorized
	// batch kernel (set at compile time; see compile).
	fused bool

	// vpinned is set while pushBatch holds one table version for a whole
	// batch (legal only when no registered query writes tables); emit then
	// skips its per-tuple re-pin so every tuple of the batch joins against
	// the same consistent DB state.
	vpinned bool
}

// pinTables pins the current head version of every joined table and every
// table-EXISTS target: one atomic load each, no locks, no copies. All
// probes until the next pin read this consistent state.
func (op *filterProjectOp) pinTables() {
	for i := range op.tables {
		op.tables[i].ver = op.tables[i].tbl.Head()
	}
	for i := range op.tableExists {
		op.tableExists[i].ver = op.tableExists[i].tbl.Head()
	}
}

// timeSensitive: only deferred FOLLOWING windows emit from the passage of
// event time alone.
func (op *filterProjectOp) timeSensitive() bool { return op.deferred }

// pushBatch processes a run of same-stream tuples. The fused kernel handles
// the stateless filter→project shape: one pooled frame serves the
// whole run, the WHERE pass records survivors in the batch's selection
// vector, and the projection pass writes every output row into one shared
// value arena. Stateful shapes (table joins, EXISTS buffers, DISTINCT,
// LIMIT, deferral) take the run tuple by tuple, advancing the clock to each
// tuple as they go.
func (op *filterProjectOp) pushBatch(aliases []string, b *stream.Batch) error {
	e := op.e
	isOuter := containsFold(aliases, op.outerAlias)
	if !op.fused || !isOuter {
		// Pin table versions once for the whole batch when no registered
		// query writes tables: every tuple then joins against one consistent
		// DB state, and concurrent ad-hoc writers never tear a batch. With
		// table-writing queries registered, emit re-pins per tuple so a
		// query's own inserts stay visible to later tuples in the batch.
		if (len(op.tables) > 0 || len(op.tableExists) > 0) && e.tableWriters == 0 {
			op.pinTables()
			op.vpinned = true
			defer func() { op.vpinned = false }()
		}
		for _, t := range b.Tuples {
			if t.TS > e.now {
				e.now = t.TS
			}
			// Outer role first: PRECEDING windows see only previously-arrived
			// tuples (the Example 1 dedup semantics exclude the current tuple).
			if isOuter && !op.deferred {
				if err := op.emit(t); err != nil {
					return err
				}
			}
			// Inner roles: feed sub-query buffers.
			for _, ex := range op.exists {
				if containsFold(aliases, ex.alias) {
					if err := ex.buffer.Add(t); err != nil {
						return err
					}
				}
			}
			if isOuter && op.deferred {
				op.pending = append(op.pending, pendingOuter{t: t, deadline: t.TS.Add(op.maxFol)})
			}
		}
		return nil
	}
	f := getFrame(op.nslots, nil)
	defer putFrame(f)
	sel := b.Sel[:0]
	if op.where == nil {
		for i := range b.Tuples {
			sel = append(sel, int32(i))
		}
	} else {
		for i, t := range b.Tuples {
			f.slots[0] = t.Vals
			ok, err := op.where(f)
			if err != nil {
				b.Sel = sel
				return err
			}
			if ok {
				sel = append(sel, int32(i))
			}
		}
	}
	b.Sel = sel
	if len(sel) == 0 {
		return nil
	}
	// One arena holds every surviving row; rows are capped sub-slices so
	// they stay disjoint (the arena never reallocates: capacity is exact).
	arena := make([]stream.Value, 0, len(sel)*len(op.proj.names))
	for _, idx := range sel {
		t := b.Tuples[idx]
		if t.TS > e.now {
			e.now = t.TS
		}
		f.slots[0] = t.Vals
		base := len(arena)
		var err error
		arena, err = op.proj.buildInto(arena, f)
		if err != nil {
			return err
		}
		if err := op.sinkRow(op.proj.row(arena[base:len(arena):len(arena)], t.TS)); err != nil {
			return err
		}
	}
	return nil
}

func (op *filterProjectOp) advance(ts stream.Timestamp) error {
	// Fire deferred outers whose window has closed.
	for len(op.pending) > 0 && op.pending[0].deadline <= ts {
		p := op.pending[0]
		op.pending = op.pending[1:]
		if err := op.emit(p.t); err != nil {
			return err
		}
	}
	// Evict sub-query buffers: a buffered tuple at τ matters while some
	// live or future outer anchor p >= oldest-pending (or now - maxFol)
	// could still cover it: τ >= p - maxPre.
	horizon := ts.Add(-op.maxFol - op.maxPre)
	if len(op.pending) > 0 {
		h2 := op.pending[0].t.TS.Add(-op.maxPre)
		if h2 < horizon {
			horizon = h2
		}
	}
	for _, ex := range op.exists {
		ex.buffer.EvictBefore(horizon)
	}
	return nil
}

// emit runs the WHERE clause (EXISTS sub-queries included) and projects.
func (op *filterProjectOp) emit(t *stream.Tuple) error {
	if !op.vpinned {
		op.pinTables()
	}
	f := getFrame(op.nslots, nil)
	f.slots[0] = t.Vals
	// Nested-loop (usually index) join over context tables.
	err := op.joinTables(f, t, 0)
	putFrame(f)
	return err
}

func (op *filterProjectOp) joinTables(f *frame, t *stream.Tuple, i int) error {
	if i == len(op.tables) {
		if ok, err := holdsOpt(op.where, f); err != nil || !ok {
			return err
		}
		vals, err := op.proj.build(f)
		if err != nil {
			return err
		}
		return op.sinkRow(op.proj.row(vals, t.TS))
	}
	jt := &op.tables[i]
	rows := jt.buf[:0]
	if jt.eqKey != nil {
		v, err := jt.eqKey(f)
		if err != nil {
			return err
		}
		rows = jt.ver.Probe(jt.eqPos, v, rows)
	} else {
		rows = jt.ver.AppendAll(rows)
	}
	jt.buf = rows
	for _, r := range rows {
		f.slots[i+1] = r.Vals
		if err := op.joinTables(f, t, i+1); err != nil {
			return err
		}
	}
	return nil
}

func (op *filterProjectOp) sinkRow(r Row) error {
	if op.distinct {
		if op.seen == nil {
			op.seen = map[uint64]int{}
		}
		h := hashRow(r.Vals)
		if op.seen[h] > 0 {
			return nil
		}
		op.seen[h]++
	}
	if op.limit >= 0 && op.emitted >= op.limit {
		return nil
	}
	op.emitted++
	return op.q.sink(r)
}

// compileWindowExists compiles one windowed [NOT] EXISTS: scan the inner
// buffer over the window around the anchor's event time for a tuple that
// satisfies the inner WHERE, evaluated with the outer row as the enclosing
// scope.
func compileWindowExists(ex *existsState, inner *stream.Schema, anchorAlias, outerAlias string,
	where Expr, sc *scope) (evalFn, error) {
	anchor, err := compileAnchor(sc, anchorAlias, outerAlias)
	if err != nil {
		return nil, err
	}
	cond, err := compileOptBool(where, sc.child(aliasSchema{alias: ex.alias, schema: inner}))
	if err != nil {
		return nil, err
	}
	pre, fol, neg := windowPre(ex.win), windowFol(ex.win), ex.node.Negate
	return func(f *frame) (stream.Value, error) {
		anchorTS, err := anchor(f)
		if err != nil {
			return stream.Null, err
		}
		child := getFrame(1, f)
		found := false
		ex.buffer.EachInRange(anchorTS.Add(-pre), anchorTS.Add(fol), func(t *stream.Tuple) bool {
			child.slots[0] = t.Vals
			found, err = holdsOpt(cond, child)
			return !found && err == nil // keep scanning
		})
		putFrame(child)
		if err != nil {
			return stream.Null, err
		}
		return stream.Bool(found != neg), nil
	}, nil
}

// compileTableExists compiles [NOT] EXISTS over a persistent table
// (Example 2's movement check), using an index lookup when the correlation
// is a simple equality.
func compileTableExists(ex *tableExistsState, key Expr, where Expr, sc *scope) (evalFn, error) {
	var keyFn evalFn
	if key != nil {
		var err error
		if keyFn, err = compileExpr(key, sc); err != nil {
			return nil, err
		}
	}
	cond, err := compileOptBool(where, sc.child(aliasSchema{alias: ex.alias, schema: ex.tbl.Schema()}))
	if err != nil {
		return nil, err
	}
	neg := ex.node.Negate
	return func(f *frame) (stream.Value, error) {
		ver := ex.ver
		if ver == nil {
			ver = ex.tbl.Head()
		}
		rows := ex.buf[:0]
		if keyFn != nil {
			v, err := keyFn(f)
			if err != nil {
				return stream.Null, err
			}
			rows = ver.Probe(ex.eqPos, v, rows)
		} else {
			rows = ver.AppendAll(rows)
		}
		ex.buf = rows
		child := getFrame(1, f)
		defer putFrame(child)
		for _, r := range rows {
			child.slots[0] = r.Vals
			ok, err := holdsOpt(cond, child)
			if err != nil {
				return stream.Null, err
			}
			if ok {
				return stream.Bool(!neg), nil
			}
		}
		return stream.Bool(neg), nil
	}, nil
}

// compileAnchor resolves a window anchor's event time at plan time: the
// anchor alias (the outer tuple when "") must carry a column named like a
// timestamp — read_time, tagtime, ts, timestamp or time, in that order — and
// at run time the first of those holding a time wins.
func compileAnchor(sc *scope, anchorAlias, outerAlias string) (func(*frame) (stream.Timestamp, error), error) {
	alias := anchorAlias
	if alias == "" {
		alias = outerAlias
	}
	noTime := fmt.Errorf("esl: cannot resolve event time of window anchor %q", alias)
	slot := sc.slot(alias)
	if slot < 0 {
		return nil, noTime
	}
	var cols []int
	for _, col := range []string{"read_time", "tagtime", "ts", "timestamp", "time"} {
		if pos, ok := sc.binds[slot].schema.Col(col); ok {
			cols = append(cols, pos)
		}
	}
	if len(cols) == 0 {
		return nil, noTime
	}
	return func(f *frame) (stream.Timestamp, error) {
		row := f.slots[slot]
		for _, pos := range cols {
			if ts, ok := slotValue(row, pos).AsTime(); ok {
				return ts, nil
			}
		}
		return 0, noTime
	}, nil
}

func windowPre(w *WindowClause) time.Duration {
	if w == nil {
		return 0
	}
	return w.Preceding
}

func windowFol(w *WindowClause) time.Duration {
	if w == nil {
		return 0
	}
	return w.Following
}

// planExists finds EXISTS nodes in the predicate, attaches their runtimes
// to the operator and compiles their evaluators into sc: windowed stream
// sub-queries get buffers (and defer the outer decision when the window has
// a FOLLOWING part); table sub-queries evaluate immediately against the
// store.
func (e *Engine) planExists(where Expr, op *filterProjectOp, inputs map[string][]string, sc *scope) error {
	var nodes []*Exists
	collectExists(where, &nodes)
	for _, node := range nodes {
		sub := node.Sub
		if len(sub.From) != 1 {
			return fmt.Errorf("esl: EXISTS sub-queries support a single source")
		}
		f := sub.From[0]
		var fn evalFn
		var err error
		if si, isStream := e.streams[strings.ToLower(f.Source)]; isStream {
			if f.Window == nil {
				return fmt.Errorf("esl: EXISTS over stream %s needs a window (unbounded otherwise)", f.Source)
			}
			if f.Window.Rows {
				return fmt.Errorf("esl: EXISTS over ROWS windows is not supported")
			}
			ex := &existsState{node: node, alias: f.Alias, win: f.Window}
			if fn, err = compileWindowExists(ex, si.schema, f.Window.Anchor, op.outerAlias, sub.Where, sc); err != nil {
				return err
			}
			op.exists = append(op.exists, ex)
			inputs[f.Source] = appendUnique(inputs[f.Source], f.Alias)
			if f.Window.Following > op.maxFol {
				op.maxFol = f.Window.Following
			}
			if f.Window.Preceding > op.maxPre {
				op.maxPre = f.Window.Preceding
			}
			if f.Window.HasFollowing {
				op.deferred = true
			}
		} else if tbl, isTable := e.store.Get(f.Source); isTable {
			// Table EXISTS: evaluated against current table contents.
			ex := &tableExistsState{node: node, alias: f.Alias, tbl: tbl}
			var key Expr
			if ex.eqCol, key = findEqualityLookup(sub.Where, f.Alias, tbl.Schema()); ex.eqCol != "" {
				ex.eqPos, _ = tbl.Schema().Col(ex.eqCol)
			}
			if fn, err = compileTableExists(ex, key, sub.Where, sc); err != nil {
				return err
			}
			op.tableExists = append(op.tableExists, ex)
		} else {
			return fmt.Errorf("esl: EXISTS over unknown source %q", f.Source)
		}
		if sc.exists == nil {
			sc.exists = map[*Exists]evalFn{}
		}
		sc.exists[node] = fn
	}
	return nil
}

type tableExistsState struct {
	node  *Exists
	alias string
	tbl   *db.Table
	eqCol string
	eqPos int
	// Pinned version + reused probe buffer, maintained like joinTable's.
	ver *db.Version
	buf []*db.Row
}

// collectExists lists the EXISTS nodes of x, not descending into their
// sub-queries.
func collectExists(x Expr, out *[]*Exists) {
	walkExpr(x, func(n Expr) {
		if ex, ok := n.(*Exists); ok {
			*out = append(*out, ex)
		}
	})
}

// findEqualityLookup finds a conjunct alias.col = expr (or expr = alias.col)
// where expr does not reference alias, enabling an index lookup.
func findEqualityLookup(where Expr, alias string, schema *stream.Schema) (string, Expr) {
	var conjuncts []Expr
	splitConjuncts(where, &conjuncts)
	for _, c := range conjuncts {
		b, ok := c.(*Binary)
		if !ok || b.Op != "=" {
			continue
		}
		for _, try := range [][2]Expr{{b.L, b.R}, {b.R, b.L}} {
			ref, ok := try[0].(*ColRef)
			if !ok {
				continue
			}
			if _, has := schema.Col(ref.Name); !has {
				continue
			}
			// The ref must belong to the inner alias: either qualified
			// with it, or unqualified with the column existing in the
			// inner schema (SQL inner-first resolution, Example 2).
			if ref.Qualifier != "" && !strings.EqualFold(ref.Qualifier, alias) {
				continue
			}
			if referencesAlias(try[1], alias) {
				continue
			}
			// Unqualified other-side columns that also exist in the inner
			// schema would resolve inner-first; skip those.
			if refsUnqualifiedOf(try[1], schema) {
				continue
			}
			return ref.Name, try[1]
		}
	}
	return "", nil
}

func splitConjuncts(x Expr, out *[]Expr) {
	if b, ok := x.(*Binary); ok && b.Op == "AND" {
		splitConjuncts(b.L, out)
		splitConjuncts(b.R, out)
		return
	}
	if x != nil {
		*out = append(*out, x)
	}
}

func referencesAlias(x Expr, alias string) bool {
	found := false
	walkExpr(x, func(n Expr) {
		if ref, ok := n.(*ColRef); ok && strings.EqualFold(ref.Qualifier, alias) {
			found = true
		}
	})
	return found
}

func refsUnqualifiedOf(x Expr, schema *stream.Schema) bool {
	found := false
	walkExpr(x, func(n Expr) {
		if ref, ok := n.(*ColRef); ok && ref.Qualifier == "" {
			if _, has := schema.Col(ref.Name); has {
				found = true
			}
		}
	})
	return found
}

func walkExpr(x Expr, fn func(Expr)) {
	if x == nil {
		return
	}
	fn(x)
	switch n := x.(type) {
	case *Binary:
		walkExpr(n.L, fn)
		walkExpr(n.R, fn)
	case *Unary:
		walkExpr(n.X, fn)
	case *Between:
		walkExpr(n.X, fn)
		walkExpr(n.Lo, fn)
		walkExpr(n.Hi, fn)
	case *IsNull:
		walkExpr(n.X, fn)
	case *Call:
		for _, a := range n.Args {
			walkExpr(a, fn)
		}
	case *Exists:
		// sub-query predicates handled separately
	}
}

func findSeqExpr(x Expr) *SeqExpr {
	var found *SeqExpr
	walkExpr(x, func(n Expr) {
		if se, ok := n.(*SeqExpr); ok && found == nil {
			found = se
		}
	})
	return found
}

func containsFold(list []string, s string) bool {
	for _, x := range list {
		if strings.EqualFold(x, s) {
			return true
		}
	}
	return false
}

func appendUnique(list []string, s string) []string {
	if containsFold(list, s) {
		return list
	}
	return append(list, s)
}

func hashRow(vals []stream.Value) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, v := range vals {
		h = (h ^ v.Hash()) * prime
	}
	return h
}
