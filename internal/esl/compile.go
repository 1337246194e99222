package esl

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/stream"
)

// The expression compiler: every SQL expression the planner accepts — WHERE
// and SELECT over tuples and table rows, SEQ step filters and bind-time
// predicates with previous and star aggregates, correlated EXISTS, GROUP BY,
// HAVING and aggregate arguments, UDA bodies and table DML — is compiled
// once, at registration, into a Go closure over a frame.
//
// A scope describes what is visible where the expression runs: an ordered
// list of bindings (stream tuples or table rows, each in a fixed slot), the
// temporal match the first nsteps bindings come from, the aggregate call
// sites the frame's accumulators answer, the planned EXISTS sub-queries, and
// the enclosing scope of a correlated sub-query. Compilation resolves every
// column reference against the scope — innermost scope first, latest binding
// first — to a (depth, slot, position) triple, so evaluation never looks a
// name up. An unknown column or qualifier is a registration error; functions
// stay resolved per call, so a UDF re-registered after a query still takes
// effect. A function's entry may bind a call site's literal arguments at
// registration (epc_match compiles a constant pattern once); that prepared
// form runs only while the name still resolves to that entry.
//
// A frame is one evaluation's bindings: a value row per slot (a tuple's
// values, a table row, or nil for an unbound step, which reads as NULLs),
// the match, the star predecessor the previous operator reads, the group's
// accumulators, and the frame of the enclosing scope. Frames are pooled and
// owned by one evaluation, never by an operator: derived-stream emission can
// re-enter an operator that is mid-evaluation.
//
// Values follow SQL three-valued logic: NULL propagates, AND/OR are Kleene.
// compileBool is the WHERE contract (true only when known TRUE; a type error
// is returned), compilePred the step-filter contract (NULL or an error
// refuses the tuple), with the constant comparison shapes that dominate RFID
// filters fused into direct tuple reads.

// evalFn is a compiled expression.
type evalFn func(*frame) (stream.Value, error)

// boolFn is a compiled predicate: true only when the predicate is known TRUE.
type boolFn func(*frame) (bool, error)

// frame is the per-evaluation state a compiled expression reads.
type frame struct {
	slots  [][]stream.Value
	parent *frame
	match  *core.Match
	// prev is the predecessor of the tuple bound at step prevStep (-1 when
	// no step is rebound); it overrides the match for the previous operator.
	prev     *stream.Tuple
	prevStep int
	accs     []Accumulator
}

var framePool = sync.Pool{New: func() any { return new(frame) }}

// getFrame returns a pooled frame with n empty slots; release it with
// putFrame once nothing evaluated against it is still running.
func getFrame(n int, parent *frame) *frame {
	f := framePool.Get().(*frame)
	if cap(f.slots) < n {
		f.slots = make([][]stream.Value, n)
	}
	f.slots = f.slots[:n]
	f.parent = parent
	f.prevStep = -1
	return f
}

// putFrame drops every reference the frame holds and pools it, keeping the
// slot array for the next evaluation.
func putFrame(f *frame) {
	slots := f.slots[:cap(f.slots)]
	clear(slots)
	*f = frame{slots: slots[:0]}
	framePool.Put(f)
}

// bindMatch binds each step slot to the step's last tuple in m.
func (f *frame) bindMatch(m *core.Match, nsteps int) {
	f.match = m
	for i := 0; i < nsteps; i++ {
		f.slots[i] = tupleVals(m.Last(i))
	}
}

func (f *frame) up(depth int) *frame {
	for ; depth > 0; depth-- {
		f = f.parent
	}
	return f
}

func tupleVals(t *stream.Tuple) []stream.Value {
	if t == nil {
		return nil
	}
	return t.Vals
}

// slotValue reads column pos of a slot row; an unbound slot or a short row
// reads as NULL.
func slotValue(row []stream.Value, pos int) stream.Value {
	if pos < len(row) {
		return row[pos]
	}
	return stream.Null
}

// scope is the compile-time view of one frame level.
type scope struct {
	parent *scope
	binds  []scopeBind
	funcs  *FuncRegistry
	// nsteps > 0 marks a temporal-match scope: binds[:nsteps] are the
	// pattern steps, in order, and frames carry the match.
	nsteps int
	// aggs maps aggregate call sites to the frame's accumulators.
	aggs map[*Call]int
	// exists holds the planned evaluators of EXISTS sub-queries.
	exists map[*Exists]evalFn
}

// scopeBind is one slot: a FROM alias (lower-cased) and its schema.
type scopeBind struct {
	alias  string
	schema *stream.Schema
}

func newScope(funcs *FuncRegistry, binds ...aliasSchema) *scope {
	sc := &scope{funcs: funcs}
	for _, b := range binds {
		sc.bind(b.alias, b.schema)
	}
	return sc
}

// bind appends a slot and returns its index.
func (sc *scope) bind(alias string, schema *stream.Schema) int {
	sc.binds = append(sc.binds, scopeBind{alias: strings.ToLower(alias), schema: schema})
	return len(sc.binds) - 1
}

// child opens a nested scope (a correlated sub-query's row) over sc.
func (sc *scope) child(binds ...aliasSchema) *scope {
	c := newScope(sc.funcs, binds...)
	c.parent = sc
	return c
}

// slot finds the innermost binding of alias at this scope level, -1 when
// absent.
func (sc *scope) slot(alias string) int {
	a := strings.ToLower(alias)
	for i := len(sc.binds) - 1; i >= 0; i-- {
		if sc.binds[i].alias == a {
			return i
		}
	}
	return -1
}

// resolve maps a column reference to its frame depth, slot and position.
func (sc *scope) resolve(n *ColRef) (depth, slot, pos int, err error) {
	q := strings.ToLower(n.Qualifier)
	for s := sc; s != nil; s, depth = s.parent, depth+1 {
		for i := len(s.binds) - 1; i >= 0; i-- {
			b := &s.binds[i]
			if q != "" && b.alias != q {
				continue
			}
			if p, ok := b.schema.Col(n.Name); ok {
				return depth, i, p, nil
			}
			if q != "" {
				return 0, 0, 0, fmt.Errorf("esl: unknown column %s", ExprString(n))
			}
		}
	}
	return 0, 0, 0, fmt.Errorf("esl: unknown column %s", ExprString(n))
}

// step resolves a pattern-step alias for the previous operator and star
// aggregates; ok is false outside any temporal match naming it.
func (sc *scope) step(alias string) (depth, step int, schema *stream.Schema, ok bool) {
	a := strings.ToLower(alias)
	for s := sc; s != nil; s, depth = s.parent, depth+1 {
		for i := 0; i < s.nsteps; i++ {
			if s.binds[i].alias == a {
				return depth, i, s.binds[i].schema, true
			}
		}
	}
	return 0, 0, nil, false
}

func constFn(v stream.Value) evalFn {
	return func(*frame) (stream.Value, error) { return v, nil }
}

func errFn(err error) evalFn {
	return func(*frame) (stream.Value, error) { return stream.Null, err }
}

// compileExpr compiles x against sc.
func compileExpr(x Expr, sc *scope) (evalFn, error) {
	switch n := x.(type) {
	case *Literal:
		return constFn(n.Val), nil

	case *Interval:
		return constFn(stream.Int(n.D.Nanoseconds())), nil

	case *ColRef:
		depth, slot, pos, err := sc.resolve(n)
		if err != nil {
			return nil, err
		}
		if depth == 0 {
			return func(f *frame) (stream.Value, error) { return slotValue(f.slots[slot], pos), nil }, nil
		}
		return func(f *frame) (stream.Value, error) { return slotValue(f.up(depth).slots[slot], pos), nil }, nil

	case *PrevRef:
		depth, step, schema, ok := sc.step(n.Alias)
		if !ok {
			return constFn(stream.Null), nil
		}
		pos, ok := schema.Col(n.Name)
		if !ok {
			return nil, fmt.Errorf("esl: unknown column %s", ExprString(n))
		}
		return func(f *frame) (stream.Value, error) {
			f = f.up(depth)
			var t *stream.Tuple
			if f.prevStep == step {
				t = f.prev
			} else if f.match != nil && step < len(f.match.Groups) {
				if g := f.match.Groups[step]; len(g) >= 2 {
					t = g[len(g)-2]
				}
			}
			if t == nil {
				return stream.Null, nil
			}
			return t.Get(pos), nil
		}, nil

	case *StarAgg:
		return compileStarAgg(n, sc)

	case *Unary:
		return compileUnary(n, sc)

	case *Binary:
		return compileBinary(n, sc)

	case *Between:
		return compileBetween(n, sc)

	case *IsNull:
		xf, err := compileExpr(n.X, sc)
		if err != nil {
			return nil, err
		}
		neg := n.Negate
		return func(f *frame) (stream.Value, error) {
			v, err := xf(f)
			if err != nil {
				return stream.Null, err
			}
			return stream.Bool(v.IsNull() != neg), nil
		}, nil

	case *Call:
		return compileCall(n, sc)

	case *Exists:
		for s, depth := sc, 0; s != nil; s, depth = s.parent, depth+1 {
			if fn, ok := s.exists[n]; ok {
				if depth == 0 {
					return fn, nil
				}
				return func(f *frame) (stream.Value, error) { return fn(f.up(depth)) }, nil
			}
		}
		return errFn(fmt.Errorf("esl: EXISTS must be planned, not evaluated directly")), nil

	case *SeqExpr:
		return errFn(fmt.Errorf("esl: %s must be planned, not evaluated directly", n.Kind)), nil
	}
	return errFn(fmt.Errorf("esl: cannot evaluate %T", x)), nil
}

func compileStarAgg(n *StarAgg, sc *scope) (evalFn, error) {
	outside := fmt.Errorf("esl: %s used outside a temporal match", ExprString(n))
	depth, step, schema, ok := sc.step(n.Alias)
	if !ok {
		return errFn(outside), nil
	}
	switch n.Fn {
	case "COUNT":
		return func(f *frame) (stream.Value, error) {
			m := f.up(depth).match
			if m == nil {
				return stream.Null, outside
			}
			return stream.Int(int64(m.Count(step))), nil
		}, nil
	case "FIRST", "LAST":
		pos, ok := schema.Col(n.Name)
		if !ok {
			return nil, fmt.Errorf("esl: unknown column %s", ExprString(n))
		}
		first := n.Fn == "FIRST"
		return func(f *frame) (stream.Value, error) {
			m := f.up(depth).match
			if m == nil {
				return stream.Null, outside
			}
			t := m.Last(step)
			if first {
				t = m.First(step)
			}
			if t == nil {
				return stream.Null, nil
			}
			return t.Get(pos), nil
		}, nil
	}
	return errFn(outside), nil
}

func compileUnary(n *Unary, sc *scope) (evalFn, error) {
	xf, err := compileExpr(n.X, sc)
	if err != nil {
		return nil, err
	}
	switch n.Op {
	case "NOT":
		return func(f *frame) (stream.Value, error) {
			v, err := xf(f)
			if err != nil || v.IsNull() {
				return stream.Null, err
			}
			b, ok := v.AsBool()
			if !ok {
				return stream.Null, fmt.Errorf("esl: NOT applied to non-boolean %s", v)
			}
			return stream.Bool(!b), nil
		}, nil
	case "-":
		return func(f *frame) (stream.Value, error) {
			v, err := xf(f)
			if err != nil {
				return stream.Null, err
			}
			switch v.Kind() {
			case stream.KindNull:
				return stream.Null, nil
			case stream.KindInt:
				i, _ := v.AsInt()
				return stream.Int(-i), nil
			case stream.KindFloat:
				fl, _ := v.AsFloat()
				return stream.Float(-fl), nil
			default:
				return stream.Null, fmt.Errorf("esl: unary minus on %s", v.Kind())
			}
		}, nil
	}
	return errFn(fmt.Errorf("esl: unknown unary op %q", n.Op)), nil
}

func compileBinary(n *Binary, sc *scope) (evalFn, error) {
	lf, err := compileExpr(n.L, sc)
	if err != nil {
		return nil, err
	}
	rf, err := compileExpr(n.R, sc)
	if err != nil {
		return nil, err
	}
	op := n.Op
	switch op {
	case "AND", "OR":
		// Short-circuit three-valued logic: the right operand is skipped
		// only when the left one decides the result.
		and := op == "AND"
		return func(f *frame) (stream.Value, error) {
			l, err := lf(f)
			if err != nil {
				return stream.Null, err
			}
			lb, lok := l.AsBool()
			if lok && lb != and {
				return stream.Bool(lb), nil
			}
			r, err := rf(f)
			if err != nil {
				return stream.Null, err
			}
			rb, rok := r.AsBool()
			switch {
			case rok && rb != and:
				return stream.Bool(rb), nil
			case !lok || !rok: // at least one NULL, none decisive
				return stream.Null, nil
			default:
				return stream.Bool(and), nil
			}
		}, nil

	case "=", "<>", "<", "<=", ">", ">=":
		return func(f *frame) (stream.Value, error) {
			l, r, err := evalPair(f, lf, rf)
			if err != nil || l.IsNull() || r.IsNull() {
				return stream.Null, err
			}
			c, ok := l.Compare(r)
			if !ok {
				return stream.Null, fmt.Errorf("esl: cannot compare %s with %s", l.Kind(), r.Kind())
			}
			return stream.Bool(cmpHolds(op, c)), nil
		}, nil

	case "LIKE", "NOT LIKE":
		neg := op == "NOT LIKE"
		return func(f *frame) (stream.Value, error) {
			l, r, err := evalPair(f, lf, rf)
			if err != nil || l.IsNull() || r.IsNull() {
				return stream.Null, err
			}
			s, ok1 := l.AsString()
			pat, ok2 := r.AsString()
			if !ok1 || !ok2 {
				return stream.Null, fmt.Errorf("esl: LIKE needs string operands")
			}
			return stream.Bool(likeMatch(s, pat) != neg), nil
		}, nil

	case "||":
		return func(f *frame) (stream.Value, error) {
			l, r, err := evalPair(f, lf, rf)
			if err != nil || l.IsNull() || r.IsNull() {
				return stream.Null, err
			}
			return stream.Str(l.String() + r.String()), nil
		}, nil

	case "+", "-", "*", "/", "%":
		return func(f *frame) (stream.Value, error) {
			l, r, err := evalPair(f, lf, rf)
			if err != nil {
				return stream.Null, err
			}
			return arith(op, l, r)
		}, nil
	}
	return errFn(fmt.Errorf("esl: unknown operator %q", op)), nil
}

// evalPair evaluates both operands of a strict binary operator, left first.
func evalPair(f *frame, lf, rf evalFn) (l, r stream.Value, err error) {
	if l, err = lf(f); err != nil {
		return
	}
	r, err = rf(f)
	return
}

// cmpHolds applies a comparison operator to a three-way comparison result.
func cmpHolds(op string, c int) bool {
	switch op {
	case "=":
		return c == 0
	case "<>":
		return c != 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	default:
		return c >= 0
	}
}

func compileBetween(n *Between, sc *scope) (evalFn, error) {
	fns, err := compileList([]Expr{n.X, n.Lo, n.Hi}, sc)
	if err != nil {
		return nil, err
	}
	neg := n.Negate
	return func(f *frame) (stream.Value, error) {
		var vals [3]stream.Value
		for i, fn := range fns {
			v, err := fn(f)
			if err != nil {
				return stream.Null, err
			}
			vals[i] = v
		}
		v, lo, hi := vals[0], vals[1], vals[2]
		if v.IsNull() || lo.IsNull() || hi.IsNull() {
			return stream.Null, nil
		}
		c1, ok1 := v.Compare(lo)
		c2, ok2 := v.Compare(hi)
		if !ok1 || !ok2 {
			return stream.Null, fmt.Errorf("esl: BETWEEN over incomparable types")
		}
		return stream.Bool((c1 >= 0 && c2 <= 0) != neg), nil
	}, nil
}

// compileCall compiles an aggregate call site the scope's frames answer, or
// a scalar function call. Scalar functions resolve by name on every call.
// When the entry the name resolves to at registration prepares this call
// site's literal arguments, a call runs the prepared form while the name
// still resolves to that entry, and the generic path once a registration
// replaced it.
func compileCall(n *Call, sc *scope) (evalFn, error) {
	for s, depth := sc, 0; s != nil; s, depth = s.parent, depth+1 {
		if idx, ok := s.aggs[n]; ok {
			return func(f *frame) (stream.Value, error) { return f.up(depth).accs[idx].Result() }, nil
		}
	}
	if isAggregateName(n.Name) {
		return errFn(fmt.Errorf("esl: aggregate %s used outside an aggregation context", n.Name)), nil
	}
	args, err := compileList(n.Args, sc)
	if err != nil {
		return nil, err
	}
	reg := sc.funcs
	if reg == nil {
		reg = builtinFuncs
	}
	name, upper := n.Name, strings.ToUpper(n.Name)
	generic := func(f *frame) (stream.Value, error) {
		ent, ok := reg.funcs[upper]
		if !ok {
			return stream.Null, fmt.Errorf("esl: unknown function %s", name)
		}
		vals, err := evalList(args, f)
		if err != nil {
			return stream.Null, err
		}
		v, err := ent.fn(vals)
		if err != nil {
			// Scalar UDF failures yield NULL (malformed EPC codes etc.), so a
			// single bad tag does not kill a continuous query.
			return stream.Null, nil
		}
		return v, nil
	}
	ent := reg.funcs[upper]
	if ent == nil || ent.prepare == nil {
		return generic, nil
	}
	lits := make([]*stream.Value, len(n.Args))
	var free []int
	for i, a := range n.Args {
		if lit, ok := a.(*Literal); ok {
			lits[i] = &lit.Val
		} else {
			free = append(free, i)
		}
	}
	bound, err := ent.prepare(lits)
	if err != nil {
		return nil, err
	}
	if bound == nil || len(free) != 1 {
		return generic, nil
	}
	arg := args[free[0]]
	return func(f *frame) (stream.Value, error) {
		if reg.funcs[upper] != ent {
			return generic(f)
		}
		v, err := arg(f)
		if err != nil {
			return stream.Null, err
		}
		if v, err = bound(v); err != nil {
			return stream.Null, nil // as on the generic path
		}
		return v, nil
	}, nil
}

// compileBool compiles a predicate: NULL is not satisfied; an evaluation
// error or a non-boolean result is returned as an error.
func compileBool(x Expr, sc *scope) (boolFn, error) {
	fn, err := compileExpr(x, sc)
	if err != nil {
		return nil, err
	}
	return func(f *frame) (bool, error) {
		v, err := fn(f)
		if err != nil || v.IsNull() {
			return false, err
		}
		b, ok := v.AsBool()
		if !ok {
			return false, fmt.Errorf("esl: predicate %s evaluated to non-boolean %s", ExprString(x), v)
		}
		return b, nil
	}, nil
}

// compileOptBool is compileBool for an optional clause: nil compiles to nil,
// which holdsOpt treats as always satisfied.
func compileOptBool(x Expr, sc *scope) (boolFn, error) {
	if x == nil {
		return nil, nil
	}
	return compileBool(x, sc)
}

// holdsOpt evaluates an optional compiled predicate (nil holds).
func holdsOpt(b boolFn, f *frame) (bool, error) {
	if b == nil {
		return true, nil
	}
	return b(f)
}

// compileList compiles each expression of a list.
func compileList(exprs []Expr, sc *scope) ([]evalFn, error) {
	fns := make([]evalFn, len(exprs))
	for i, x := range exprs {
		fn, err := compileExpr(x, sc)
		if err != nil {
			return nil, err
		}
		fns[i] = fn
	}
	return fns, nil
}

// evalList evaluates a compiled list into a fresh row.
func evalList(fns []evalFn, f *frame) ([]stream.Value, error) {
	row := make([]stream.Value, len(fns))
	for i, fn := range fns {
		v, err := fn(f)
		if err != nil {
			return nil, err
		}
		row[i] = v
	}
	return row, nil
}

// ---- step filters ----------------------------------------------------------

// compiledPred is one step-filter conjunct compiled to a tuple test.
type compiledPred struct {
	fn func(*stream.Tuple) bool
	// isEq/eqPos/eqVal expose a `col = literal` shape for acceptance
	// indexing in merged groups (in addition to fn, which enforces it too).
	isEq  bool
	eqPos int
	eqVal stream.Value
}

// litOperand unwraps a literal or interval operand to its constant value.
func litOperand(e Expr) (stream.Value, bool) {
	switch x := e.(type) {
	case *Literal:
		return x.Val, true
	case *Interval:
		return stream.Int(x.D.Nanoseconds()), true
	}
	return stream.Null, false
}

// flipCmp mirrors a comparison operator for `lit OP col` → `col OP' lit`.
func flipCmp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op // = and <> are symmetric
}

// compilePred compiles a conjunct over the single tuple bound in slot 0 of
// sc into a step filter under the refusal contract: a conjunct evaluating to
// NULL or failing refuses the tuple. Column-versus-constant comparisons,
// BETWEEN and IS NULL read the tuple directly; every other shape runs the
// compiled expression on a pooled frame.
func compilePred(expr Expr, sc *scope) (compiledPred, error) {
	col := func(x Expr) (int, bool) {
		ref, ok := x.(*ColRef)
		if !ok {
			return 0, false
		}
		depth, slot, pos, err := sc.resolve(ref)
		return pos, err == nil && depth == 0 && slot == 0
	}
	never := compiledPred{fn: func(*stream.Tuple) bool { return false }}
	switch x := expr.(type) {
	case *Binary:
		switch x.Op {
		case "=", "<>", "<", "<=", ">", ">=":
		default:
			return compileGeneralPred(expr, sc)
		}
		op := x.Op
		pos, refOK := col(x.L)
		lit, litOK := litOperand(x.R)
		if !refOK || !litOK {
			if pos, refOK = col(x.R); refOK {
				lit, litOK = litOperand(x.L)
				op = flipCmp(op)
			}
		}
		if !refOK || !litOK {
			return compileGeneralPred(expr, sc)
		}
		if lit.IsNull() {
			return never, nil // col OP NULL is unknown for every tuple
		}
		fn := func(t *stream.Tuple) bool {
			v := t.Get(pos)
			if v.IsNull() {
				return false
			}
			c, ok := v.Compare(lit)
			return ok && cmpHolds(op, c)
		}
		if op == "=" {
			return compiledPred{fn: fn, isEq: true, eqPos: pos, eqVal: lit}, nil
		}
		return compiledPred{fn: fn}, nil

	case *Between:
		pos, refOK := col(x.X)
		lo, loOK := litOperand(x.Lo)
		hi, hiOK := litOperand(x.Hi)
		if !refOK || !loOK || !hiOK {
			return compileGeneralPred(expr, sc)
		}
		if lo.IsNull() || hi.IsNull() {
			return never, nil
		}
		neg := x.Negate
		return compiledPred{fn: func(t *stream.Tuple) bool {
			v := t.Get(pos)
			if v.IsNull() {
				return false
			}
			c1, ok1 := v.Compare(lo)
			c2, ok2 := v.Compare(hi)
			return ok1 && ok2 && (c1 >= 0 && c2 <= 0) != neg
		}}, nil

	case *IsNull:
		pos, refOK := col(x.X)
		if !refOK {
			return compileGeneralPred(expr, sc)
		}
		neg := x.Negate
		return compiledPred{fn: func(t *stream.Tuple) bool { return t.Get(pos).IsNull() != neg }}, nil
	}
	return compileGeneralPred(expr, sc)
}

func compileGeneralPred(expr Expr, sc *scope) (compiledPred, error) {
	b, err := compileBool(expr, sc)
	if err != nil {
		return compiledPred{}, err
	}
	n := len(sc.binds)
	return compiledPred{fn: func(t *stream.Tuple) bool {
		f := getFrame(n, nil)
		f.slots[0] = t.Vals
		ok, err := b(f)
		putFrame(f)
		return err == nil && ok
	}}, nil
}

// fuseFilters chains compiled conjuncts into one step filter (AND). One
// conjunct returns its closure directly; zero returns nil.
func fuseFilters(preds []compiledPred) func(*stream.Tuple) bool {
	switch len(preds) {
	case 0:
		return nil
	case 1:
		return preds[0].fn
	}
	fns := make([]func(*stream.Tuple) bool, len(preds))
	for i, p := range preds {
		fns[i] = p.fn
	}
	return func(t *stream.Tuple) bool {
		for _, fn := range fns {
			if !fn(t) {
				return false
			}
		}
		return true
	}
}

// ---- value operators -------------------------------------------------------

// arith applies numeric (and event-time) arithmetic: Time - Time yields a
// duration (INT nanoseconds), Time ± duration yields Time, otherwise the
// usual int/float promotion applies.
func arith(op string, l, r stream.Value) (stream.Value, error) {
	if l.IsNull() || r.IsNull() {
		return stream.Null, nil
	}
	lt, rt := l.Kind() == stream.KindTime, r.Kind() == stream.KindTime
	switch {
	case lt && rt && op == "-":
		a, _ := l.AsInt()
		b, _ := r.AsInt()
		return stream.Int(a - b), nil
	case lt && !rt && (op == "+" || op == "-"):
		a, _ := l.AsInt()
		d, ok := r.AsInt()
		if !ok {
			return stream.Null, fmt.Errorf("esl: time %s %s", op, r.Kind())
		}
		if op == "-" {
			d = -d
		}
		return stream.Time(stream.Timestamp(a + d)), nil
	case !lt && rt && op == "+":
		a, ok := l.AsInt()
		b, _ := r.AsInt()
		if !ok {
			return stream.Null, fmt.Errorf("esl: %s + time", l.Kind())
		}
		return stream.Time(stream.Timestamp(a + b)), nil
	case lt || rt:
		return stream.Null, fmt.Errorf("esl: unsupported time arithmetic %s %s %s", l.Kind(), op, r.Kind())
	}

	if l.Kind() == stream.KindFloat || r.Kind() == stream.KindFloat {
		a, ok1 := l.AsFloat()
		b, ok2 := r.AsFloat()
		if !ok1 || !ok2 {
			return stream.Null, fmt.Errorf("esl: arithmetic on %s and %s", l.Kind(), r.Kind())
		}
		switch op {
		case "+":
			return stream.Float(a + b), nil
		case "-":
			return stream.Float(a - b), nil
		case "*":
			return stream.Float(a * b), nil
		case "/":
			if b == 0 {
				return stream.Null, nil // SQL-ish: division by zero yields NULL
			}
			return stream.Float(a / b), nil
		case "%":
			return stream.Null, fmt.Errorf("esl: %% needs integer operands")
		}
	}
	a, ok1 := l.AsInt()
	b, ok2 := r.AsInt()
	if !ok1 || !ok2 {
		return stream.Null, fmt.Errorf("esl: arithmetic on %s and %s", l.Kind(), r.Kind())
	}
	switch op {
	case "+":
		return stream.Int(a + b), nil
	case "-":
		return stream.Int(a - b), nil
	case "*":
		return stream.Int(a * b), nil
	case "/":
		if b == 0 {
			return stream.Null, nil
		}
		return stream.Int(a / b), nil
	case "%":
		if b == 0 {
			return stream.Null, nil
		}
		return stream.Int(a % b), nil
	}
	return stream.Null, fmt.Errorf("esl: unknown arithmetic op %q", op)
}

// likeMatch implements SQL LIKE: % matches any run, _ one character (one
// UTF-8 rune; a byte that starts no valid rune counts as one character).
// A % in the pattern is always the wildcard, also where the text has one.
func likeMatch(s, pat string) bool {
	// Iterative two-pointer matcher with backtracking on the last %.
	si, pi := 0, 0
	star, mark := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pat) && pat[pi] == '%':
			star = pi
			mark = si
			pi++
		case pi < len(pat) && pat[pi] == '_':
			si += runeLen(s[si:])
			pi++
		case pi < len(pat) && pat[pi] == s[si]:
			si++
			pi++
		case star >= 0:
			pi = star + 1
			mark += runeLen(s[mark:])
			si = mark
		default:
			return false
		}
	}
	for pi < len(pat) && pat[pi] == '%' {
		pi++
	}
	return pi == len(pat)
}

// runeLen is the byte length of the rune s starts with, 1 for ASCII
// without decoding.
func runeLen(s string) int {
	if s[0] < utf8.RuneSelf {
		return 1
	}
	_, n := utf8.DecodeRuneInString(s)
	return n
}

// ---- canonicalization ------------------------------------------------------

// canonExpr renders an expression with step aliases normalized to "#<ord>",
// so textually different but structurally identical predicates from separate
// queries compare equal. ok is false for expressions the merge layer refuses
// to canonicalize: function calls (possibly impure UDFs) and sub-queries.
// resolve maps a column reference to its step ordinal.
func canonExpr(e Expr, resolve func(*ColRef) (int, bool), ord func(alias string) (int, bool)) (string, bool) {
	var b strings.Builder
	ok := canonInto(&b, e, resolve, ord)
	return b.String(), ok
}

func canonInto(b *strings.Builder, e Expr, resolve func(*ColRef) (int, bool), ord func(alias string) (int, bool)) bool {
	switch x := e.(type) {
	case *Literal:
		b.WriteString(x.Val.Kind().String())
		b.WriteString(":")
		b.WriteString(ExprString(x))
		return true
	case *Interval:
		b.WriteString(ExprString(x))
		return true
	case *ColRef:
		i, ok := resolve(x)
		if !ok {
			return false
		}
		fmt.Fprintf(b, "#%d.%s", i, strings.ToLower(x.Name))
		return true
	case *PrevRef:
		i, ok := ord(x.Alias)
		if !ok {
			return false
		}
		fmt.Fprintf(b, "#%d.previous.%s", i, strings.ToLower(x.Name))
		return true
	case *StarAgg:
		i, ok := ord(x.Alias)
		if !ok {
			return false
		}
		fmt.Fprintf(b, "%s(#%d*).%s", strings.ToUpper(x.Fn), i, strings.ToLower(x.Name))
		return true
	case *Unary:
		b.WriteString("(")
		b.WriteString(x.Op)
		b.WriteString(" ")
		if !canonInto(b, x.X, resolve, ord) {
			return false
		}
		b.WriteString(")")
		return true
	case *Binary:
		b.WriteString("(")
		if !canonInto(b, x.L, resolve, ord) {
			return false
		}
		b.WriteString(" " + x.Op + " ")
		if !canonInto(b, x.R, resolve, ord) {
			return false
		}
		b.WriteString(")")
		return true
	case *Between:
		b.WriteString("(")
		if !canonInto(b, x.X, resolve, ord) {
			return false
		}
		if x.Negate {
			b.WriteString(" NOT")
		}
		b.WriteString(" BETWEEN ")
		if !canonInto(b, x.Lo, resolve, ord) {
			return false
		}
		b.WriteString(" AND ")
		if !canonInto(b, x.Hi, resolve, ord) {
			return false
		}
		b.WriteString(")")
		return true
	case *IsNull:
		b.WriteString("(")
		if !canonInto(b, x.X, resolve, ord) {
			return false
		}
		if x.Negate {
			b.WriteString(" IS NOT NULL)")
		} else {
			b.WriteString(" IS NULL)")
		}
		return true
	}
	// Call (possibly impure UDF), Exists, SeqExpr: not canonicalizable.
	return false
}

// canonSet renders a conjunct set order-independently: each conjunct
// canonicalized, then sorted.
func canonSet(exprs []string) string {
	sorted := append([]string(nil), exprs...)
	sort.Strings(sorted)
	return strings.Join(sorted, " && ")
}
