package esl

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/stream"
)

// exceptionSchema is the pseudo-row bound under the alias "exception" when
// projecting EXCEPTION_SEQ / CLEVEL_SEQ output, so queries can select
// exception.level, exception.reason and exception.at.
var exceptionSchema = stream.MustSchema("exception",
	stream.Field{Name: "level"},
	stream.Field{Name: "reason"},
	stream.Field{Name: "at"})

// eventOp runs one temporal event query: a core matcher plus projection.
type eventOp struct {
	e   *Engine
	q   *Query
	sel *Select

	def      core.Def
	kindName string // SEQ, EXCEPTION_SEQ, CLEVEL_SEQ
	seq      *core.Matcher
	exc      *core.ExceptionMatcher
	aliases  []string // step aliases in order
	// lowerAliases are the step aliases lower-cased, in order.
	lowerAliases []string

	// proj reads frames of nslots slots: one per step, plus the exception
	// pseudo-row for the exception kinds.
	proj   *projection
	nslots int
	// starItemAlias is set when the projection references a star step's
	// individual tuples (the multi-return form of §3.1.2).
	starItemAlias string
	starItemStep  int
	// levelFilter gates CLEVEL_SEQ emissions (e.g. "< 3").
	levelFilter func(level int) bool

	// merge classifies the query for the plan-merging layer (SEQ only; nil
	// for the exception kinds). filterExprs records each step's pushed-down
	// filter conjuncts for EXPLAIN.
	merge       *mergeSpec
	filterExprs [][]Expr

	// resolved caches the matcher's alias→step resolution per reader alias
	// slice (reader slices are stable for the life of a query, so slice
	// identity is the cache key).
	resolved []resolvedEntry
}

type resolvedEntry struct {
	aliases []string
	res     *core.Resolved
}

// stepConjunct is one classified WHERE conjunct of a SEQ-family query: the
// step aliases it references, whether it uses the previous operator, and the
// latest step (evalAt) at which all references are bound.
type stepConjunct struct {
	expr    Expr
	fn      boolFn          // expr compiled over the step scope
	refs    map[string]bool // lower aliases referenced
	hasPrev bool
	evalAt  int
}

// buildPredClosure assembles the residual conjunct lists into the matcher's
// bind-time predicate: each step bound to its last tuple, the candidate
// tuple bound at its step, with the run's last tuple as its predecessor.
// Conjuncts assigned to steps at or beyond upTo are skipped — the
// plan-merging layer rebuilds a shared prefix predicate with upTo =
// len(steps)-1 and moves the final step's residuals into per-member
// acceptance checks. NULL or an error refuses the binding.
func buildPredClosure(nslots, nsteps int, predsByStep [][]stepConjunct, upTo int) func(*core.Match, int, *stream.Tuple) bool {
	return func(partial *core.Match, stepIdx int, t *stream.Tuple) bool {
		if stepIdx >= upTo || len(predsByStep[stepIdx]) == 0 {
			return true
		}
		f := getFrame(nslots, nil)
		f.bindMatch(partial, nsteps)
		f.slots[stepIdx] = t.Vals
		f.prevStep, f.prev = stepIdx, partial.Last(stepIdx)
		held := true
		for _, cl := range predsByStep[stepIdx] {
			// The previous-operator constraint only applies from the
			// second tuple of a run.
			if cl.hasPrev && f.prev == nil {
				continue
			}
			if ok, err := cl.fn(f); err != nil || !ok {
				held = false
				break
			}
		}
		putFrame(f)
		return held
	}
}

// compileEventQuery plans a SELECT whose WHERE contains a SEQ-family
// operator.
func (e *Engine) compileEventQuery(sel *Select, se *SeqExpr, q *Query) (queryOp, map[string][]string, error) {
	op := &eventOp{e: e, q: q, sel: sel, kindName: se.Kind}

	// Map FROM aliases to stream schemas; every operator argument must be
	// a FROM alias naming a stream.
	aliasStream := map[string]string{} // lower alias -> stream name
	aliasSchemaMap := map[string]*stream.Schema{}
	var schemas []aliasSchema
	for _, f := range sel.From {
		si, ok := e.streams[strings.ToLower(f.Source)]
		if !ok {
			return nil, nil, fmt.Errorf("esl: %s queries need stream sources; %q is not a stream", se.Kind, f.Source)
		}
		if f.Window != nil {
			return nil, nil, fmt.Errorf("esl: windows on FROM items are not combined with %s; put the window on the operator (OVER [...])", se.Kind)
		}
		key := strings.ToLower(f.Alias)
		if _, dup := aliasStream[key]; dup {
			return nil, nil, fmt.Errorf("esl: duplicate FROM alias %q", f.Alias)
		}
		aliasStream[key] = f.Source
		aliasSchemaMap[key] = si.schema
		schemas = append(schemas, aliasSchema{alias: f.Alias, schema: si.schema})
	}

	// Build pattern steps from the operator arguments.
	stepOf := map[string]int{}
	for i, arg := range se.Args {
		key := strings.ToLower(arg.Alias)
		if _, ok := aliasStream[key]; !ok {
			return nil, nil, fmt.Errorf("esl: %s argument %q is not a FROM alias", se.Kind, arg.Alias)
		}
		if _, dup := stepOf[key]; dup {
			return nil, nil, fmt.Errorf("esl: alias %q appears twice in %s", arg.Alias, se.Kind)
		}
		stepOf[key] = i
		op.def.Steps = append(op.def.Steps, core.Step{Alias: arg.Alias, Star: arg.Star})
		op.aliases = append(op.aliases, arg.Alias)
		op.lowerAliases = append(op.lowerAliases, key)
	}
	// The step scope: slot i is step i's tuple; the exception kinds add the
	// exception pseudo-row.
	sc := &scope{funcs: e.funcs, nsteps: len(op.def.Steps)}
	for _, alias := range op.lowerAliases {
		sc.bind(alias, aliasSchemaMap[alias])
	}
	if se.Kind != "SEQ" {
		sc.bind("exception", exceptionSchema)
	}
	op.nslots = len(sc.binds)
	if se.HasMode {
		op.def.Mode = se.Mode
	} else if se.Kind != "SEQ" {
		op.def.Mode = core.ModeConsecutive
	}
	op.def.ExpireAfter = se.ExpireAfter

	// Operator window.
	if w := se.Window; w != nil {
		if w.Rows {
			return nil, nil, fmt.Errorf("esl: ROWS windows are not supported on %s", se.Kind)
		}
		if w.HasPreceding && w.HasFollowing {
			return nil, nil, fmt.Errorf("esl: PRECEDING AND FOLLOWING is not supported on %s", se.Kind)
		}
		anchor := len(op.def.Steps) - 1
		if w.HasFollowing {
			anchor = 0
		}
		if w.Anchor != "" {
			i, ok := stepOf[strings.ToLower(w.Anchor)]
			if !ok {
				return nil, nil, fmt.Errorf("esl: window anchor %q is not a %s argument", w.Anchor, se.Kind)
			}
			anchor = i
		}
		span := w.Preceding
		if w.HasFollowing {
			span = w.Following
		}
		op.def.Window = &core.WindowAnchor{Span: span, Step: anchor, Following: w.HasFollowing}
	}

	// Classify the WHERE conjuncts.
	var conjuncts []Expr
	splitConjuncts(sel.Where, &conjuncts)
	resolveAlias := func(ref *ColRef) (string, error) {
		if ref.Qualifier != "" {
			key := strings.ToLower(ref.Qualifier)
			if _, ok := stepOf[key]; !ok {
				return "", fmt.Errorf("esl: %q does not name a %s argument", ref.Qualifier, se.Kind)
			}
			return key, nil
		}
		var found string
		for alias := range stepOf {
			if _, ok := aliasSchemaMap[alias].Col(ref.Name); ok {
				if found != "" {
					return "", fmt.Errorf("esl: unqualified column %q is ambiguous across %s arguments", ref.Name, se.Kind)
				}
				found = alias
			}
		}
		if found == "" {
			return "", fmt.Errorf("esl: unknown column %q", ref.Name)
		}
		return found, nil
	}

	var residual []stepConjunct
	var partitionEdges [][2]colKey

	var levelCmp *Binary
	for _, c := range conjuncts {
		// The operator conjunct itself.
		if c == Expr(se) {
			continue
		}
		// CLEVEL comparison: cmp(CLEVEL_SEQ(...), literal) either side.
		if b, ok := c.(*Binary); ok && se.Kind == "CLEVEL_SEQ" {
			if b.L == Expr(se) || b.R == Expr(se) {
				levelCmp = b
				continue
			}
		}
		if inner := findSeqExpr(c); inner != nil {
			return nil, nil, fmt.Errorf("esl: only one %s-family operator per query", se.Kind)
		}

		// Partition-key candidates: alias1.col = alias2.col.
		if b, ok := c.(*Binary); ok && b.Op == "=" {
			l, lok := b.L.(*ColRef)
			r, rok := b.R.(*ColRef)
			if lok && rok {
				la, lerr := resolveAlias(l)
				ra, rerr := resolveAlias(r)
				if lerr == nil && rerr == nil && la != ra {
					partitionEdges = append(partitionEdges, [2]colKey{
						{alias: la, col: strings.ToLower(l.Name)},
						{alias: ra, col: strings.ToLower(r.Name)},
					})
					continue
				}
			}
		}

		// General conjunct: find referenced aliases.
		cl := stepConjunct{expr: c, refs: map[string]bool{}}
		var resolveErr error
		walkExpr(c, func(n Expr) {
			switch x := n.(type) {
			case *ColRef:
				a, err := resolveAlias(x)
				if err != nil && resolveErr == nil {
					resolveErr = err
				}
				if err == nil {
					cl.refs[a] = true
				}
			case *PrevRef:
				cl.refs[strings.ToLower(x.Alias)] = true
				cl.hasPrev = true
			case *StarAgg:
				cl.refs[strings.ToLower(x.Alias)] = true
			}
		})
		if resolveErr != nil {
			return nil, nil, resolveErr
		}
		cl.evalAt = 0
		for a := range cl.refs {
			if i, ok := stepOf[a]; ok && i > cl.evalAt {
				cl.evalAt = i
			}
		}
		residual = append(residual, cl)
	}
	if se.Kind == "CLEVEL_SEQ" {
		if levelCmp == nil {
			return nil, nil, fmt.Errorf("esl: CLEVEL_SEQ must appear in a comparison (e.g. CLEVEL_SEQ(...) < n)")
		}
		lf, err := compileLevelFilter(levelCmp, se, e.funcs)
		if err != nil {
			return nil, nil, err
		}
		op.levelFilter = lf
	}

	// Partition keys: a column-equality class covering every step.
	keyCols := solvePartition(partitionEdges, op.aliases)
	if keyCols != nil {
		for i, alias := range op.aliases {
			col := keyCols[strings.ToLower(alias)]
			schema := aliasSchemaMap[strings.ToLower(alias)]
			pos, ok := schema.Col(col)
			if !ok {
				return nil, nil, fmt.Errorf("esl: partition column %q missing on %s", col, alias)
			}
			keyPos := pos
			op.def.Steps[i].Key = func(t *stream.Tuple) stream.Value { return t.Get(keyPos) }
		}
		// A fully-keyed SEQ partitions the stream into independent per-key
		// sub-instances: hash-routing input by the key column reproduces the
		// serial match set exactly, because window, mode and gap admission
		// are all decided at bind time from tuple timestamps. ExpireAfter
		// idling and the exception kinds depend on the global heartbeat
		// interleaving, so they stay serial.
		if se.Kind == "SEQ" && se.ExpireAfter == 0 {
			keys := map[string]string{}
			conflict := false
			for alias, col := range keyCols {
				src := strings.ToLower(aliasStream[alias])
				if prev, ok := keys[src]; ok && prev != col {
					conflict = true // same stream keyed by two different columns
				}
				keys[src] = col
			}
			if !conflict {
				q.shard = Shardability{Shardable: true, Keys: keys}
			}
		}
	} else {
		// No full cover: the equality conjuncts become residual predicates.
		for _, edge := range partitionEdges {
			l, r := edge[0], edge[1]
			cl := stepConjunct{
				expr: &Binary{Op: "=",
					L: &ColRef{Qualifier: l.alias, Name: l.col},
					R: &ColRef{Qualifier: r.alias, Name: r.col}},
				refs: map[string]bool{l.alias: true, r.alias: true},
			}
			for a := range cl.refs {
				if i := stepOf[a]; i > cl.evalAt {
					cl.evalAt = i
				}
			}
			residual = append(residual, cl)
		}
	}

	// Single-alias conjuncts without previous/star references become step
	// filters (cheap pushdown); a MaxGap shape becomes the star gap bound.
	// Along the way, collect each step's sargable `col = literal` shape for
	// the routing index: stepEq[i] is a constant-equality predicate the step
	// provably enforces before tuple i can bind (nil when none exists).
	stepEq := make([]*guardPred, len(op.def.Steps))
	captureStepEq := func(stepIdx int, expr Expr) {
		if stepEq[stepIdx] != nil {
			return
		}
		ref, val, ok := eqConstShape(expr)
		if !ok || val.Kind() == stream.KindNull {
			return
		}
		pos, ok := aliasSchemaMap[op.lowerAliases[stepIdx]].Col(ref.Name)
		if !ok {
			return
		}
		stepEq[stepIdx] = &guardPred{col: strings.ToLower(ref.Name), pos: pos, vals: []stream.Value{val}}
	}
	predsByStep := make([][]stepConjunct, len(op.def.Steps))
	stepFilters := make([][]compiledPred, len(op.def.Steps))
	stepFilterExprs := make([][]Expr, len(op.def.Steps))
	for _, cl := range residual {
		stepIdx := cl.evalAt
		step := &op.def.Steps[stepIdx]
		if len(cl.refs) == 1 && !cl.hasPrev && !exprHasStarAgg(cl.expr) && !step.Star {
			// A filter failure clears the step's mask bit, and a tuple whose
			// mask is empty is invisible to every matcher kind and mode — so
			// filter-derived guards are always skip-safe. The conjunct
			// compiles to a fused tuple test (constant comparison, range,
			// IS NULL) where its shape allows.
			captureStepEq(stepIdx, cl.expr)
			alias := op.lowerAliases[stepIdx]
			cp, err := compilePred(cl.expr, newScope(e.funcs, aliasSchema{alias: alias, schema: aliasSchemaMap[alias]}))
			if err != nil {
				return nil, nil, err
			}
			stepFilters[stepIdx] = append(stepFilters[stepIdx], cp)
			stepFilterExprs[stepIdx] = append(stepFilterExprs[stepIdx], cl.expr)
			continue
		}
		if gap, ok := maxGapShape(cl.expr, step, aliasSchemaMap); ok && step.Star {
			if step.MaxGap == 0 || gap < step.MaxGap {
				step.MaxGap = gap
			}
			continue
		}
		// Residual-predicate failure leaves the mask bit set: the matcher
		// sees the tuple but refuses the binding. That refusal is a no-op
		// only for plain SEQ outside CONSECUTIVE mode (a CONSECUTIVE run
		// breaks on a visible non-binding tuple, and the exception kinds
		// raise exceptions on one) — so only there may a residual equality
		// feed the routing index.
		if se.Kind == "SEQ" && op.def.Mode != core.ModeConsecutive &&
			len(cl.refs) == 1 && !cl.hasPrev && !exprHasStarAgg(cl.expr) {
			captureStepEq(stepIdx, cl.expr)
		}
		var err error
		if cl.fn, err = compileBool(cl.expr, sc); err != nil {
			return nil, nil, err
		}
		predsByStep[stepIdx] = append(predsByStep[stepIdx], cl)
	}

	// Fuse each step's compiled filter conjuncts into one closure.
	op.filterExprs = stepFilterExprs
	for i := range op.def.Steps {
		op.def.Steps[i].Filter = fuseFilters(stepFilters[i])
	}

	// The residual predicate closure.
	hasPreds := false
	for _, ps := range predsByStep {
		if len(ps) > 0 {
			hasPreds = true
		}
	}
	if hasPreds {
		op.def.Pred = buildPredClosure(op.nslots, len(op.def.Steps), predsByStep, len(op.def.Steps))
	}

	// Build the matcher.
	var err error
	if se.Kind == "SEQ" {
		op.seq, err = core.NewMatcher(op.def)
	} else {
		op.exc, err = core.NewExceptionMatcher(op.def)
	}
	if err != nil {
		return nil, nil, err
	}

	// Validate projection references at registration time.
	for _, item := range sel.Items {
		if item.Star {
			continue
		}
		var vErr error
		walkExpr(item.Expr, func(n Expr) {
			if vErr != nil {
				return
			}
			switch x := n.(type) {
			case *ColRef:
				if se.Kind != "SEQ" && strings.EqualFold(x.Qualifier, "exception") {
					if _, ok := exceptionSchema.Col(x.Name); !ok {
						vErr = fmt.Errorf("esl: unknown exception column %q", x.Name)
					}
					return
				}
				alias, err := resolveAlias(x)
				if err != nil {
					vErr = err
					return
				}
				if _, ok := aliasSchemaMap[alias].Col(x.Name); !ok {
					vErr = fmt.Errorf("esl: stream %s has no column %q", alias, x.Name)
				}
			case *PrevRef:
				key := strings.ToLower(x.Alias)
				schema, ok := aliasSchemaMap[key]
				if !ok {
					vErr = fmt.Errorf("esl: %q does not name a %s argument", x.Alias, se.Kind)
					return
				}
				if _, ok := schema.Col(x.Name); !ok {
					vErr = fmt.Errorf("esl: stream %s has no column %q", x.Alias, x.Name)
				}
			case *StarAgg:
				key := strings.ToLower(x.Alias)
				i, ok := stepOf[key]
				if !ok || !op.def.Steps[i].Star {
					vErr = fmt.Errorf("esl: %s(%s*) needs a star argument of %s", x.Fn, x.Alias, se.Kind)
					return
				}
				if x.Name != "" {
					if _, ok := aliasSchemaMap[key].Col(x.Name); !ok {
						vErr = fmt.Errorf("esl: stream %s has no column %q", x.Alias, x.Name)
					}
				}
			}
		})
		if vErr != nil {
			return nil, nil, vErr
		}
	}

	op.starItemStep = -1
	for _, item := range sel.Items {
		walkExpr(item.Expr, func(n Expr) {
			var alias string
			switch x := n.(type) {
			case *ColRef:
				alias = strings.ToLower(x.Qualifier)
			case *PrevRef:
				alias = strings.ToLower(x.Alias)
			default:
				return
			}
			if i, ok := stepOf[alias]; ok && op.def.Steps[i].Star {
				if op.starItemStep >= 0 && op.starItemStep != i {
					err = fmt.Errorf("esl: multi-return projection over more than one star sequence is not allowed (§3.1.2)")
				}
				op.starItemAlias = op.def.Steps[i].Alias
				op.starItemStep = i
			}
		})
	}
	if err != nil {
		return nil, nil, err
	}
	if se.Kind != "SEQ" {
		schemas = append(schemas, aliasSchema{alias: "exception", schema: exceptionSchema})
	}
	if op.proj, err = compileProjection(sel, schemas, sc); err != nil {
		return nil, nil, err
	}

	// Classify the query for the plan-merging layer.
	if se.Kind == "SEQ" {
		op.merge = buildMergeSpec(op, keyCols, aliasStream, predsByStep, stepFilters, stepFilterExprs,
			func(ref *ColRef) (int, bool) {
				a, rErr := resolveAlias(ref)
				if rErr != nil {
					return 0, false
				}
				i, ok := stepOf[a]
				return i, ok
			},
			func(alias string) (int, bool) {
				i, ok := stepOf[strings.ToLower(alias)]
				return i, ok
			})
	}

	// Routing: each step's alias reads its FROM source stream.
	inputs := map[string][]string{}
	for _, alias := range op.aliases {
		src := aliasStream[strings.ToLower(alias)]
		inputs[src] = appendUnique(inputs[src], alias)
	}

	// Routing-index guards: a stream edge gets a guard only when EVERY step
	// it feeds carries a constant-equality — then a tuple matching none of
	// those constants can bind no step at all, and skipping delivery is a
	// provable no-op. One unguarded step keeps the whole edge conservative.
	for i := range op.def.Steps {
		src := strings.ToLower(aliasStream[op.lowerAliases[i]])
		covered := true
		for j := range op.def.Steps {
			if strings.ToLower(aliasStream[op.lowerAliases[j]]) == src && stepEq[j] == nil {
				covered = false
				break
			}
		}
		if !covered {
			continue
		}
		if q.guards == nil {
			q.guards = map[string]*streamGuard{}
		}
		if q.guards[src] == nil {
			g := &streamGuard{strict: true}
			for j := range op.def.Steps {
				if strings.ToLower(aliasStream[op.lowerAliases[j]]) == src {
					p := stepEq[j]
					for _, v := range p.vals {
						g.add(p.col, p.pos, v)
					}
				}
			}
			q.guards[src] = g
		}
	}
	return op, inputs, nil
}

type colKey struct{ alias, col string }

// solvePartition finds an equality class covering all step aliases and
// returns alias -> column, or nil.
func solvePartition(edges [][2]colKey, aliases []string) map[string]string {
	if len(edges) == 0 {
		return nil
	}
	parent := map[colKey]colKey{}
	var find func(k colKey) colKey
	find = func(k colKey) colKey {
		if p, ok := parent[k]; ok && p != k {
			root := find(p)
			parent[k] = root
			return root
		}
		if _, ok := parent[k]; !ok {
			parent[k] = k
		}
		return parent[k]
	}
	union := func(a, b colKey) { parent[find(a)] = find(b) }
	for _, e := range edges {
		union(e[0], e[1])
	}
	// Group members by root; look for a class with one column per alias.
	classes := map[colKey][]colKey{}
	for k := range parent {
		root := find(k)
		classes[root] = append(classes[root], k)
	}
	for _, members := range classes {
		cover := map[string]string{}
		for _, m := range members {
			if _, dup := cover[m.alias]; !dup {
				cover[m.alias] = m.col
			}
		}
		full := true
		for _, a := range aliases {
			if _, ok := cover[strings.ToLower(a)]; !ok {
				full = false
				break
			}
		}
		if full {
			return cover
		}
	}
	return nil
}

// maxGapShape matches X.tc - X.previous.tc <= INTERVAL (or <) on a star
// step's time column, turning the previous-operator constraint into the
// matcher's MaxGap fast path.
func maxGapShape(e Expr, step *core.Step, schemas map[string]*stream.Schema) (time.Duration, bool) {
	b, ok := e.(*Binary)
	if !ok || (b.Op != "<=" && b.Op != "<") {
		return 0, false
	}
	diff, ok := b.L.(*Binary)
	if !ok || diff.Op != "-" {
		return 0, false
	}
	iv, ok := b.R.(*Interval)
	if !ok {
		return 0, false
	}
	cur, ok := diff.L.(*ColRef)
	if !ok || !strings.EqualFold(cur.Qualifier, step.Alias) {
		return 0, false
	}
	prev, ok := diff.R.(*PrevRef)
	if !ok || !strings.EqualFold(prev.Alias, step.Alias) || !strings.EqualFold(prev.Name, cur.Name) {
		return 0, false
	}
	schema := schemas[strings.ToLower(step.Alias)]
	tc := schema.TimeColumn()
	if tc < 0 {
		return 0, false
	}
	if pos, ok := schema.Col(cur.Name); !ok || pos != tc {
		return 0, false
	}
	d := iv.D
	if b.Op == "<" {
		d -= time.Nanosecond
	}
	return d, true
}

func exprHasStarAgg(e Expr) bool {
	found := false
	walkExpr(e, func(n Expr) {
		if _, ok := n.(*StarAgg); ok {
			found = true
		}
	})
	return found
}

// compileLevelFilter turns "CLEVEL_SEQ(...) < 3" into a level predicate.
func compileLevelFilter(cmp *Binary, se *SeqExpr, funcs *FuncRegistry) (func(int) bool, error) {
	other := cmp.R
	flip := false
	if cmp.R == Expr(se) {
		other = cmp.L
		flip = true
	}
	fn, err := compileExpr(other, newScope(funcs))
	var v stream.Value
	if err == nil {
		f := getFrame(0, nil)
		v, err = fn(f)
		putFrame(f)
	}
	if err != nil {
		return nil, fmt.Errorf("esl: CLEVEL_SEQ comparison operand must be constant: %v", err)
	}
	bound, ok := v.AsInt()
	if !ok {
		return nil, fmt.Errorf("esl: CLEVEL_SEQ comparison operand must be an integer")
	}
	op := cmp.Op
	if flip { // const OP clevel  ->  clevel OP' const
		switch op {
		case "<":
			op = ">"
		case "<=":
			op = ">="
		case ">":
			op = "<"
		case ">=":
			op = "<="
		}
	}
	return func(level int) bool {
		l := int64(level)
		switch op {
		case "<":
			return l < bound
		case "<=":
			return l <= bound
		case ">":
			return l > bound
		case ">=":
			return l >= bound
		case "=":
			return l == bound
		case "<>":
			return l != bound
		default:
			return false
		}
	}, nil
}

// ---- runtime ---------------------------------------------------------------

func (op *eventOp) advance(ts stream.Timestamp) error {
	if op.seq != nil {
		op.seq.Advance(ts)
		return nil
	}
	return op.emitExceptions(op.exc.Advance(ts))
}

// timeSensitive: exception matchers fire timers from heartbeats alone, and
// ExpireAfter evicts idle runs whose expiry the clock must observe at every
// arrival.
// A plain SEQ without idle expiry only emits on arrival.
func (op *eventOp) timeSensitive() bool {
	return op.exc != nil || op.def.ExpireAfter > 0
}

func (op *eventOp) resolveFor(aliases []string) *core.Resolved {
	for i := range op.resolved {
		re := &op.resolved[i]
		if len(re.aliases) == len(aliases) && (len(aliases) == 0 || &re.aliases[0] == &aliases[0]) {
			return re.res
		}
	}
	res := op.seq.Resolve(aliases...)
	op.resolved = append(op.resolved, resolvedEntry{aliases: aliases, res: res})
	return res
}

// pushBatch feeds a run of same-stream tuples to the matcher.
func (op *eventOp) pushBatch(aliases []string, b *stream.Batch) error {
	e := op.e
	if op.seq == nil {
		// Exception matchers are time-sensitive, so their runs are runs of
		// one; the loop only serves completeness.
		for _, t := range b.Tuples {
			if t.TS > e.now {
				e.now = t.TS
			}
			_, exs, err := op.exc.Push(t, aliases...)
			if err != nil {
				return err
			}
			if err := op.emitExceptions(exs); err != nil {
				return err
			}
		}
		return nil
	}
	r := op.resolveFor(aliases)
	if op.q.target != "" {
		// Derived emission can feed back into this query's own inputs, so
		// keep the serial push/emit interleaving; only the per-push alias
		// resolution is amortized (the engine also defers its trailing
		// advance to the run boundary).
		for i, t := range b.Tuples {
			if t.TS > e.now {
				e.now = t.TS
			}
			if len(b.Prev) > 0 {
				op.seq.Advance(b.Prev[i])
			}
			matches, err := op.seq.PushResolved(r, t)
			if err != nil {
				return err
			}
			for _, m := range matches {
				if err := op.emitMatch(m); err != nil {
					return err
				}
			}
		}
		return nil
	}
	// Callback-only sink: the whole run feeds the NFA key-grouped, so each
	// partition's state is visited once per run instead of once per tuple.
	// The matcher returns matches in serial emission order; the clock is
	// advanced to each trigger before its rows are emitted.
	bms, err := op.seq.PushBatchAt(r, b.Tuples, b.Prev)
	if err != nil {
		return err
	}
	for _, bm := range bms {
		if t := b.Tuples[bm.Index]; t.TS > e.now {
			e.now = t.TS
		}
		if err := op.emitMatch(bm.Match); err != nil {
			return err
		}
	}
	return nil
}

// emitMatch projects one completed SEQ match — one row normally, one row
// per star tuple in the multi-return form.
func (op *eventOp) emitMatch(m *core.Match) error {
	// Speculative replicas carry the match's provenance hash on every row —
	// the arrival-order-independent identity reconciliation pairs records
	// by. Computed once per match, and only when the query asked for it, so
	// strict queries pay one branch.
	var prov uint64
	if op.q.wantProv {
		prov = m.Prov()
	}
	f := getFrame(op.nslots, nil)
	defer putFrame(f)
	f.bindMatch(m, len(op.def.Steps))
	if op.starItemStep < 0 {
		vals, err := op.proj.build(f)
		if err != nil {
			return err
		}
		r := op.proj.row(vals, m.End())
		r.mprov = prov
		return op.q.sink(r)
	}
	group := m.Groups[op.starItemStep]
	f.prevStep = op.starItemStep
	for i, t := range group {
		f.slots[op.starItemStep] = t.Vals
		f.prev = nil
		if i > 0 {
			f.prev = group[i-1]
		}
		vals, err := op.proj.build(f)
		if err != nil {
			return err
		}
		r := op.proj.row(vals, m.End())
		r.mprov = prov
		if err := op.q.sink(r); err != nil {
			return err
		}
	}
	return nil
}

// emitExceptions projects EXCEPTION_SEQ / CLEVEL_SEQ events. Unbound steps
// project as NULL; the pseudo-alias "exception" carries (level, reason, at).
func (op *eventOp) emitExceptions(exs []*core.Exception) error {
	for _, x := range exs {
		if op.levelFilter != nil && !op.levelFilter(x.Level) {
			continue
		}
		n := len(op.def.Steps)
		f := getFrame(op.nslots, nil)
		partial := x.Partial
		if partial == nil {
			partial = &core.Match{Groups: make([][]*stream.Tuple, n)}
		}
		f.bindMatch(partial, n)
		if x.Trigger != nil && x.Reason == core.BreakBadStart {
			// A bad-start trigger is the (failed) first step's tuple; bind
			// it so projections of the first alias show the offender.
			f.slots[0] = x.Trigger.Vals
		}
		f.slots[n] = []stream.Value{
			stream.Int(int64(x.Level)),
			stream.Str(x.Reason.String()),
			stream.Time(x.TS),
		}
		vals, err := op.proj.build(f)
		putFrame(f)
		if err != nil {
			return err
		}
		if err := op.q.sink(op.proj.row(vals, x.TS)); err != nil {
			return err
		}
	}
	return nil
}
