package esl

import (
	"fmt"
	"strings"

	"repro/internal/db"
	"repro/internal/stream"
	"repro/internal/window"
)

// Accumulator is one aggregate computation instance (per group, per
// window). Add feeds one input row's argument values; Result produces the
// current aggregate value and must be callable repeatedly (continuous
// queries emit on every arrival).
type Accumulator interface {
	Add(args []stream.Value) error
	Result() (stream.Value, error)
}

// Remover is implemented by accumulators that support incremental removal,
// enabling O(1) sliding-window maintenance. Aggregates without it are
// recomputed from the window buffer on eviction.
type Remover interface {
	Remove(args []stream.Value) error
}

// AggFactory creates accumulator instances.
type AggFactory func() Accumulator

// AggRegistry resolves aggregate names: the five SQL built-ins plus
// SQL-bodied UDAs declared with CREATE AGGREGATE.
type AggRegistry struct {
	aggs  map[string]AggFactory
	funcs *FuncRegistry
}

// NewAggRegistry builds a registry with the built-ins installed.
func NewAggRegistry(funcs *FuncRegistry) *AggRegistry {
	r := &AggRegistry{aggs: make(map[string]AggFactory), funcs: funcs}
	r.aggs["COUNT"] = func() Accumulator { return &countAcc{} }
	r.aggs["SUM"] = func() Accumulator { return &sumAcc{} }
	r.aggs["AVG"] = func() Accumulator { return &avgAcc{} }
	r.aggs["MIN"] = func() Accumulator { return &minmaxAcc{min: true} }
	r.aggs["MAX"] = func() Accumulator { return &minmaxAcc{} }
	return r
}

// Register installs a custom aggregate factory.
func (r *AggRegistry) Register(name string, f AggFactory) {
	r.aggs[strings.ToUpper(name)] = f
}

// Lookup resolves an aggregate by name.
func (r *AggRegistry) Lookup(name string) (AggFactory, bool) {
	f, ok := r.aggs[strings.ToUpper(name)]
	return f, ok
}

// Has reports whether name denotes an aggregate (built-in or UDA).
func (r *AggRegistry) Has(name string) bool {
	_, ok := r.aggs[strings.ToUpper(name)]
	return ok
}

// ---- built-in accumulators -------------------------------------------------

type countAcc struct{ n int64 }

func (a *countAcc) Add(args []stream.Value) error {
	// COUNT(*) passes no args; COUNT(expr) skips NULLs per SQL.
	if len(args) == 1 && args[0].IsNull() {
		return nil
	}
	a.n++
	return nil
}
func (a *countAcc) Remove(args []stream.Value) error {
	if len(args) == 1 && args[0].IsNull() {
		return nil
	}
	a.n--
	return nil
}
func (a *countAcc) Result() (stream.Value, error) { return stream.Int(a.n), nil }

type sumAcc struct {
	i       int64
	f       float64
	isFloat bool
	n       int64
}

func (a *sumAcc) add(v stream.Value, sign int64) error {
	if v.IsNull() {
		return nil
	}
	switch v.Kind() {
	case stream.KindInt, stream.KindBool:
		x, _ := v.AsInt()
		a.i += sign * x
	case stream.KindFloat:
		x, _ := v.AsFloat()
		a.isFloat = true
		a.f += float64(sign) * x
	default:
		return fmt.Errorf("esl: SUM over %s", v.Kind())
	}
	a.n += sign
	return nil
}
func (a *sumAcc) Add(args []stream.Value) error {
	if len(args) != 1 {
		return fmt.Errorf("esl: SUM needs one argument")
	}
	return a.add(args[0], 1)
}
func (a *sumAcc) Remove(args []stream.Value) error { return a.add(args[0], -1) }
func (a *sumAcc) Result() (stream.Value, error) {
	if a.n == 0 {
		return stream.Null, nil
	}
	if a.isFloat {
		return stream.Float(a.f + float64(a.i)), nil
	}
	return stream.Int(a.i), nil
}

type avgAcc struct{ sum sumAcc }

func (a *avgAcc) Add(args []stream.Value) error {
	if len(args) != 1 {
		return fmt.Errorf("esl: AVG needs one argument")
	}
	return a.sum.add(args[0], 1)
}
func (a *avgAcc) Remove(args []stream.Value) error { return a.sum.add(args[0], -1) }
func (a *avgAcc) Result() (stream.Value, error) {
	if a.sum.n == 0 {
		return stream.Null, nil
	}
	total := a.sum.f + float64(a.sum.i)
	return stream.Float(total / float64(a.sum.n)), nil
}

// minmaxAcc keeps a value->count multiset so Remove works for sliding
// windows. The multiset is a flat slice scanned linearly: the live entry
// count is bounded by the window's distinct values, and unlike a map the
// slice's scan cost tracks the live size — a sliding window that inserts
// and deletes a fresh key per row would otherwise pay for every bucket the
// map ever grew, which turns long streams quadratic.
type minmaxAcc struct {
	min     bool
	entries []mmEntry
}

type mmEntry struct {
	h uint64 // v.Hash(), compared before the (potentially wider) Equal
	v stream.Value
	n int
}

func (a *minmaxAcc) Add(args []stream.Value) error {
	if len(args) != 1 {
		return fmt.Errorf("esl: MIN/MAX need one argument")
	}
	v := args[0]
	if v.IsNull() {
		return nil
	}
	h := v.Hash()
	for i := range a.entries {
		if a.entries[i].h == h && a.entries[i].v.Equal(v) {
			a.entries[i].n++
			return nil
		}
	}
	a.entries = append(a.entries, mmEntry{h: h, v: v, n: 1})
	return nil
}

func (a *minmaxAcc) Remove(args []stream.Value) error {
	v := args[0]
	if v.IsNull() {
		return nil
	}
	h := v.Hash()
	for i := range a.entries {
		if a.entries[i].h == h && a.entries[i].v.Equal(v) {
			a.entries[i].n--
			if a.entries[i].n == 0 {
				a.entries[i] = a.entries[len(a.entries)-1]
				a.entries = a.entries[:len(a.entries)-1]
			}
			return nil
		}
	}
	return fmt.Errorf("esl: MIN/MAX removal of absent value %s", v)
}

func (a *minmaxAcc) Result() (stream.Value, error) {
	best := stream.Null
	for _, e := range a.entries {
		if best.IsNull() {
			best = e.v
			continue
		}
		c, ok := e.v.Compare(best)
		if !ok {
			return stream.Null, fmt.Errorf("esl: MIN/MAX over mixed types")
		}
		if (a.min && c < 0) || (!a.min && c > 0) {
			best = e.v
		}
	}
	return best, nil
}

// ---- SQL-bodied UDAs (the ESL INITIALIZE/ITERATE/TERMINATE form) ----------

// udaDef is a compiled CREATE AGGREGATE declaration.
type udaDef struct {
	decl             *CreateAggregate
	state            []*stream.Schema
	init, iter, term []tableStmt
}

// compileUDA validates and compiles the declaration and returns a factory.
// INITIALIZE and ITERATE see the parameters (the $params row) and the state
// tables; TERMINATE sees the state tables only.
func compileUDA(decl *CreateAggregate, funcs *FuncRegistry) (AggFactory, error) {
	if len(decl.Params) == 0 {
		return nil, fmt.Errorf("esl: aggregate %s needs at least one parameter", decl.Name)
	}
	if len(decl.State) == 0 {
		return nil, fmt.Errorf("esl: aggregate %s declares no state TABLE", decl.Name)
	}
	def := &udaDef{decl: decl}
	byName := map[string]*stream.Schema{}
	for _, st := range decl.State {
		schema, err := stream.NewSchema(st.Name, colFields(st.Cols)...)
		if err != nil {
			return nil, fmt.Errorf("esl: aggregate %s: %v", decl.Name, err)
		}
		def.state = append(def.state, schema)
		byName[strings.ToLower(st.Name)] = schema
	}
	params, err := stream.NewSchema("$params", colFields(decl.Params)...)
	if err != nil {
		return nil, fmt.Errorf("esl: aggregate %s: %v", decl.Name, err)
	}
	schemaOf := func(name string) (*stream.Schema, error) {
		if s, ok := byName[strings.ToLower(name)]; ok {
			return s, nil
		}
		return nil, fmt.Errorf("esl: aggregate %s: unknown state table %s", decl.Name, name)
	}
	for _, sec := range []struct {
		body   []Statement
		out    *[]tableStmt
		params *stream.Schema
	}{{decl.Init, &def.init, params}, {decl.Iter, &def.iter, params}, {decl.Term, &def.term, nil}} {
		for _, s := range sec.body {
			switch s.(type) {
			case *InsertValues, *InsertSelect, *UpdateStmt, *DeleteStmt:
			default:
				return nil, fmt.Errorf("esl: aggregate %s: unsupported statement %T in body", decl.Name, s)
			}
			st, err := compileTableStmt(s, schemaOf, sec.params, funcs)
			if err != nil {
				return nil, err
			}
			*sec.out = append(*sec.out, st)
		}
	}
	return func() Accumulator { return newUDAAccum(def) }, nil
}

// udaAccum is one running UDA instance: private state tables, the
// INITIALIZE body on first input, ITERATE on the rest, TERMINATE to read
// the result off the RETURN pseudo-table.
type udaAccum struct {
	def     *udaDef
	tables  map[string]*db.Table
	started bool
}

func newUDAAccum(def *udaDef) *udaAccum {
	a := &udaAccum{def: def, tables: make(map[string]*db.Table)}
	for _, s := range def.state {
		a.tables[strings.ToLower(s.Name())] = db.NewTable(s)
	}
	return a
}

func (a *udaAccum) Add(args []stream.Value) error {
	if len(args) != len(a.def.decl.Params) {
		return fmt.Errorf("esl: aggregate %s called with %d args, want %d",
			a.def.decl.Name, len(args), len(a.def.decl.Params))
	}
	body := a.def.iter
	if !a.started {
		body = a.def.init
		a.started = true
	}
	_, err := a.exec(body, args)
	return err
}

func (a *udaAccum) Result() (stream.Value, error) {
	rows, err := a.exec(a.def.term, nil)
	if err != nil {
		return stream.Null, err
	}
	if len(rows) == 0 || len(rows[0]) == 0 {
		return stream.Null, nil
	}
	return rows[0][0], nil
}

// exec runs a UDA body with the given parameter row; INSERT INTO RETURN
// rows are collected and returned.
func (a *udaAccum) exec(body []tableStmt, params []stream.Value) ([][]stream.Value, error) {
	var returned [][]stream.Value
	for _, st := range body {
		rows, err := st(a.table, params)
		if err != nil {
			return nil, err
		}
		returned = append(returned, rows...)
	}
	return returned, nil
}

// table resolves a state table; compileUDA validated every name.
func (a *udaAccum) table(name string) *db.Table {
	return a.tables[strings.ToLower(name)]
}

// tableStmt is a compiled INSERT, UPDATE or DELETE: tables resolves the
// tables it names, params is the $params row (ignored when compiled without
// one). It returns the rows an INSERT INTO RETURN produced.
type tableStmt func(tables func(string) *db.Table, params []stream.Value) ([][]stream.Value, error)

// compileTableStmt compiles one data-modification statement — a UDA body
// statement or table DML. schemaOf resolves and validates the tables it
// names; params, when non-nil, is the schema of a $params row every
// expression sees. A statement scanning a table binds its row after the
// parameters, so the row's columns shadow parameter names.
func compileTableStmt(s Statement, schemaOf func(string) (*stream.Schema, error), params *stream.Schema,
	funcs *FuncRegistry) (tableStmt, error) {
	sc := newScope(funcs)
	if params != nil {
		sc.bind("$params", params)
	}
	newFrame := func(p []stream.Value) *frame {
		f := getFrame(len(sc.binds), nil)
		if params != nil {
			f.slots[0] = p
		}
		return f
	}
	// target validates an INSERT target: RETURN hands rows to the caller.
	target := func(name string) (bool, error) {
		if strings.EqualFold(name, "RETURN") {
			return true, nil
		}
		_, err := schemaOf(name)
		return false, err
	}
	// rowScope binds the scanned table's row in the last slot.
	rowScope := func(alias, table string) (int, error) {
		schema, err := schemaOf(table)
		if err != nil {
			return 0, err
		}
		return sc.bind(alias, schema), nil
	}

	switch st := s.(type) {
	case *InsertValues:
		ret, err := target(st.Target)
		if err != nil {
			return nil, err
		}
		rows := make([][]evalFn, len(st.Rows))
		for i, r := range st.Rows {
			if rows[i], err = compileList(r, sc); err != nil {
				return nil, err
			}
		}
		return func(tables func(string) *db.Table, p []stream.Value) ([][]stream.Value, error) {
			f := newFrame(p)
			defer putFrame(f)
			var out [][]stream.Value
			for _, r := range rows {
				row, err := evalList(r, f)
				if err != nil {
					return nil, err
				}
				if ret {
					out = append(out, row)
				} else if _, err := tables(st.Target).Insert(row); err != nil {
					return nil, err
				}
			}
			return out, nil
		}, nil

	case *InsertSelect:
		sel := st.Sel
		if len(sel.From) != 1 {
			return nil, fmt.Errorf("esl: aggregate bodies support single-table SELECT")
		}
		src := sel.From[0]
		slot, err := rowScope(src.Alias, src.Source)
		if err != nil {
			return nil, err
		}
		ret, err := target(st.Target)
		if err != nil {
			return nil, err
		}
		where, err := compileOptBool(sel.Where, sc)
		if err != nil {
			return nil, err
		}
		items := make([]evalFn, len(sel.Items)) // nil: * (the whole row)
		for i, it := range sel.Items {
			if !it.Star {
				if items[i], err = compileExpr(it.Expr, sc); err != nil {
					return nil, err
				}
			}
		}
		return func(tables func(string) *db.Table, p []stream.Value) ([][]stream.Value, error) {
			f := newFrame(p)
			defer putFrame(f)
			var rows [][]stream.Value
			var scanErr error
			tables(src.Source).Scan(func(r *db.Row) bool {
				f.slots[slot] = r.Vals
				ok, err := holdsOpt(where, f)
				if err != nil || !ok {
					scanErr = err
					return err == nil
				}
				var row []stream.Value
				for _, it := range items {
					if it == nil {
						row = append(row, r.Vals...)
						continue
					}
					v, err := it(f)
					if err != nil {
						scanErr = err
						return false
					}
					row = append(row, v)
				}
				rows = append(rows, row)
				return true
			})
			if scanErr != nil || ret {
				return rows, scanErr
			}
			for _, row := range rows {
				if _, err := tables(st.Target).Insert(row); err != nil {
					return nil, err
				}
			}
			return nil, nil
		}, nil

	case *UpdateStmt:
		slot, err := rowScope(st.Table, st.Table)
		if err != nil {
			return nil, err
		}
		where, err := compileOptBool(st.Where, sc)
		if err != nil {
			return nil, err
		}
		type setCol struct {
			pos int
			fn  evalFn
		}
		sets := make([]setCol, len(st.Set))
		for i, set := range st.Set {
			pos, ok := sc.binds[slot].schema.Col(set.Col)
			if !ok {
				return nil, fmt.Errorf("esl: unknown column %s in UPDATE %s", set.Col, st.Table)
			}
			fn, err := compileExpr(set.Expr, sc)
			if err != nil {
				return nil, err
			}
			sets[i] = setCol{pos: pos, fn: fn}
		}
		return func(tables func(string) *db.Table, p []stream.Value) ([][]stream.Value, error) {
			tbl := tables(st.Table)
			f := newFrame(p)
			defer putFrame(f)
			// Collect updates outside the scan (db.Table locks preclude
			// nested mutation), then apply per-row values.
			type pending struct {
				row *db.Row
				set map[int]stream.Value
			}
			var updates []pending
			var scanErr error
			tbl.Scan(func(r *db.Row) bool {
				f.slots[slot] = r.Vals
				ok, err := holdsOpt(where, f)
				if err != nil || !ok {
					scanErr = err
					return err == nil
				}
				set := make(map[int]stream.Value, len(sets))
				for _, s := range sets {
					v, err := s.fn(f)
					if err != nil {
						scanErr = err
						return false
					}
					set[s.pos] = v
				}
				updates = append(updates, pending{row: r, set: set})
				return true
			})
			if scanErr != nil {
				return nil, scanErr
			}
			for _, u := range updates {
				target := u.row
				if _, err := tbl.Update(func(r *db.Row) bool { return r == target }, u.set); err != nil {
					return nil, err
				}
			}
			return nil, nil
		}, nil

	case *DeleteStmt:
		slot, err := rowScope(st.Table, st.Table)
		if err != nil {
			return nil, err
		}
		where, err := compileOptBool(st.Where, sc)
		if err != nil {
			return nil, err
		}
		return func(tables func(string) *db.Table, p []stream.Value) ([][]stream.Value, error) {
			f := newFrame(p)
			defer putFrame(f)
			var scanErr error
			tables(st.Table).Delete(func(r *db.Row) bool {
				f.slots[slot] = r.Vals
				ok, err := holdsOpt(where, f)
				if err != nil {
					scanErr = err
				}
				return ok
			})
			return nil, scanErr
		}, nil
	}
	return nil, fmt.Errorf("esl: unsupported statement %T", s)
}

// ---- grouped aggregation --------------------------------------------------

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
	args     []evalFn // none for COUNT(*)
	factory  AggFactory
	distinct bool
}

// aggregation is a compiled grouped aggregate: the GROUP BY key, the
// aggregate call sites, HAVING and the select list over a group, and the
// group table they fill. Continuous (aggregateOp) and ad-hoc
// (snapshotSelect) aggregation compile it with compileAggregation and add
// rows through its one accumulate step (groupFor, then addToGroup).
type aggregation struct {
	groupBy []evalFn
	aggs    []aggSpec
	having  boolFn
	proj    *projection
	groups  groupTable
	key     []stream.Value // groupFor's scratch key row
}

// compileAggregation compiles sel's grouping over the given sources. The
// GROUP BY key and aggregate arguments compile in sc, which reads the input
// rows; HAVING and the select list also read the group's accumulators.
func (e *Engine) compileAggregation(sel *Select, schemas []aliasSchema, sc *scope) (*aggregation, error) {
	for _, item := range sel.Items {
		if item.Star {
			return nil, fmt.Errorf("esl: SELECT * cannot be combined with aggregates")
		}
	}
	groupBy, err := compileList(sel.GroupBy, sc)
	if err != nil {
		return nil, err
	}
	a := &aggregation{groupBy: groupBy}
	asc := newScope(e.funcs, schemas...)
	asc.aggs = map[*Call]int{}
	for i, c := range e.aggregateCalls(sel) {
		factory, ok := e.aggs.Lookup(c.Name)
		if !ok { // f(*) of an unknown f counts rows
			factory, _ = e.aggs.Lookup("COUNT")
		}
		args, err := compileList(c.Args, sc) // none for f(*)
		if err != nil {
			return nil, err
		}
		asc.aggs[c] = i
		a.aggs = append(a.aggs, aggSpec{call: c, args: args, factory: factory, distinct: c.Distinct})
	}
	if a.having, err = compileOptBool(sel.Having, asc); err != nil {
		return nil, err
	}
	if a.proj, err = compileProjection(sel, schemas, asc); err != nil {
		return nil, err
	}
	return a, nil
}

// accumulate adds the row in f to its group, which it creates on first
// sight (fresh). It returns the row's aggregate arguments (none for f(*)),
// which a window keeps for removal.
func (a *aggregation) accumulate(f *frame) (g *group, fresh bool, args [][]stream.Value, err error) {
	args = make([][]stream.Value, len(a.aggs))
	for i, s := range a.aggs {
		if args[i], err = evalList(s.args, f); err != nil {
			return nil, false, nil, err
		}
	}
	if g, fresh, err = a.groupFor(f); err != nil {
		return nil, false, nil, err
	}
	return g, fresh, args, a.addToGroup(g, args)
}

// groupFor returns the group of the row in f, creating it on first sight;
// fresh reports that.
func (a *aggregation) groupFor(f *frame) (g *group, fresh bool, err error) {
	a.key = a.key[:0]
	for _, fn := range a.groupBy {
		v, err := fn(f)
		if err != nil {
			return nil, false, err
		}
		a.key = append(a.key, v)
	}
	if g, fresh = a.groups.get(a.key); fresh {
		a.initGroup(g)
	}
	return g, fresh, nil
}

// initGroup gives a new group fresh accumulators and empty DISTINCT
// multisets.
func (a *aggregation) initGroup(g *group) {
	g.accs = make([]Accumulator, len(a.aggs))
	g.distinct = make([]groupTable, len(a.aggs))
	for i, s := range a.aggs {
		g.accs[i] = s.factory()
	}
}

// addToGroup adds one input row's arguments to g. A DISTINCT aggregate sees
// each argument row only on its first occurrence.
func (a *aggregation) addToGroup(g *group, args [][]stream.Value) error {
	g.n++
	for i, acc := range g.accs {
		if a.aggs[i].distinct && !g.distinct[i].add(args[i]) {
			continue
		}
		if err := acc.Add(args[i]); err != nil {
			return err
		}
	}
	return nil
}

// removeFromGroup takes an evicted row's arguments back out of g; every
// accumulator must be a Remover. A DISTINCT aggregate removes an argument
// row with its last occurrence.
func (a *aggregation) removeFromGroup(g *group, args [][]stream.Value) error {
	g.n--
	for i, acc := range g.accs {
		if a.aggs[i].distinct {
			last, err := g.distinct[i].remove(args[i])
			if err != nil {
				return err
			}
			if !last {
				continue
			}
		}
		if err := acc.(Remover).Remove(args[i]); err != nil {
			return err
		}
	}
	return nil
}

// project evaluates HAVING and the select list over f with g's
// accumulators; ok is false when HAVING rejects the group.
func (a *aggregation) project(g *group, f *frame) (vals []stream.Value, ok bool, err error) {
	f.accs = g.accs
	if ok, err = holdsOpt(a.having, f); err != nil || !ok {
		return nil, false, err
	}
	vals, err = a.proj.build(f)
	return vals, err == nil, err
}

// ---- continuous aggregation ------------------------------------------------

// aggregateOp implements continuous aggregation: cumulative when no window
// is declared (emitting the running value per arrival, as Example 3's
// running EPC count), windowed when the FROM item carries a RANGE/ROWS
// window.
type aggregateOp struct {
	*aggregation
	e       *Engine
	q       *Query
	alias   string
	where   boolFn
	win     *WindowClause
	removal bool // all accumulators support Remove (incremental windows)
	out     outputStage
	fifo    winRows
}

// winRows is a windowed aggregate's window: its rows, oldest first.
type winRows struct{ window.Store[winEntry] }

func (w *winRows) len() int { return w.Len() }

// winEntry is one row of a windowed aggregate's window: its group and the
// argument values eviction removes.
type winEntry struct {
	ts    stream.Timestamp
	group *group
	args  [][]stream.Value
}

func (ent winEntry) Time() stream.Timestamp { return ent.ts }

// compileAggregate compiles a continuous aggregate over its one stream
// source, the only entry of schemas.
func (e *Engine) compileAggregate(sel *Select, outer FromItem, schemas []aliasSchema, q *Query) (queryOp, error) {
	if outer.Window != nil && outer.Window.HasFollowing {
		return nil, fmt.Errorf("esl: FOLLOWING windows on aggregates are not supported")
	}
	sc := newScope(e.funcs, schemas...)
	where, err := compileOptBool(sel.Where, sc)
	if err != nil {
		return nil, err
	}
	a, err := e.compileAggregation(sel, schemas, sc)
	if err != nil {
		return nil, err
	}
	op := &aggregateOp{aggregation: a, e: e, q: q, alias: outer.Alias, where: where, win: outer.Window,
		removal: true, out: newOutputStage(sel.Distinct, sel.Limit)}
	// Incremental window maintenance requires every accumulator to support
	// removal; probe one instance of each.
	for _, s := range op.aggs {
		_, ok := s.factory().(Remover)
		op.removal = op.removal && ok
	}
	return op, nil
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
	g, _, args, err := op.accumulate(f)
	if err != nil {
		return err
	}
	if op.win != nil {
		if err := op.fifo.Add(winEntry{ts: t.TS, group: g, args: args}); err != nil {
			return err
		}
		if err := op.evict(t.TS); err != nil {
			return err
		}
	}
	// Emit the affected group's current row.
	vals, ok, err := op.project(g, f)
	if err != nil || !ok || !op.out.admit(vals) {
		return err
	}
	return op.q.sink(op.proj.row(vals, t.TS))
}

func (op *aggregateOp) advance(ts stream.Timestamp) error {
	// Time windows also shrink as event time advances without arrivals;
	// ESL emits on arrival, so eviction here only trims state.
	if op.win != nil && !op.win.Rows {
		return op.evict(ts)
	}
	return nil
}

// evict drops, oldest first, the rows the window no longer holds at now:
// a ROWS window keeps the newest N, a RANGE window the rows at or after
// now - PRECEDING.
func (op *aggregateOp) evict(now stream.Timestamp) error {
	cut := now.Add(-op.win.Preceding)
	var err error
	n := 0
	op.fifo.Each(func(ent winEntry) bool {
		if op.win.Rows && op.fifo.Len()-n <= op.win.NRows || !op.win.Rows && ent.ts >= cut {
			return false
		}
		n++
		if !op.removal {
			err = fmt.Errorf("esl: windowed aggregate lacks removal support")
		} else {
			err = op.removeFromGroup(ent.group, ent.args)
		}
		return err == nil
	})
	op.fifo.Drop(n)
	return err
}
