package esl

import (
	"fmt"
	"sort"
	"strings"
)

// Explain compiles a query without registering it and renders a plan
// description: which operator runs it, pushed-down filters, partition
// keys, windows and sinks. Useful for the CLI and for understanding how
// the planner treated a WHERE clause.
func (e *Engine) Explain(sql string) (string, error) {
	s, err := ParseOne(sql)
	if err != nil {
		return "", err
	}
	var target string
	var sel *Select
	switch st := s.(type) {
	case *Select:
		sel = st
	case *InsertSelect:
		target, sel = st.Target, st.Sel
	default:
		return "", fmt.Errorf("esl: EXPLAIN supports SELECT and INSERT...SELECT, got %T", s)
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.selectReadsStream(sel) {
		for _, f := range sel.From {
			if _, ok := e.store.Get(f.Source); !ok {
				return "", fmt.Errorf("esl: unknown stream or table %q", f.Source)
			}
		}
		return "snapshot query (tables/retained history, evaluated once)\n  " + SelectString(sel), nil
	}
	q := &Query{stmt: sel, sink: func(Row) error { return nil }}
	op, inputs, err := e.compile(sel, q)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	switch x := op.(type) {
	case *eventOp:
		fmt.Fprintf(&b, "temporal event query (%s)\n", x.kindName)
		fmt.Fprintf(&b, "  pattern: ")
		for i, st := range x.def.Steps {
			if i > 0 {
				b.WriteString(" ; ")
			}
			b.WriteString(st.Alias)
			if st.Star {
				b.WriteString("*")
			}
			if st.Filter != nil {
				b.WriteString("[filtered]")
			}
			if st.MaxGap > 0 {
				fmt.Fprintf(&b, "[gap<=%s]", st.MaxGap)
			}
		}
		fmt.Fprintf(&b, "\n  mode: %s\n", x.def.Mode)
		if x.def.Partitioned() {
			b.WriteString("  partitioned: per-key matching state (equality chain detected)\n")
		}
		if w := x.def.Window; w != nil {
			dir := "PRECEDING"
			if w.Following {
				dir = "FOLLOWING"
			}
			fmt.Fprintf(&b, "  window: %s %s %s\n", w.Span, dir, x.def.Steps[w.Step].Alias)
		}
		if x.def.Pred != nil {
			b.WriteString("  residual predicates evaluated at bind time\n")
		}
		if x.def.ExpireAfter > 0 {
			fmt.Fprintf(&b, "  idle partial matches expire after %s\n", x.def.ExpireAfter)
		}
		if x.starItemStep >= 0 {
			fmt.Fprintf(&b, "  multi-return: one row per %s tuple\n", x.starItemAlias)
		}
		if x.levelFilter != nil {
			b.WriteString("  CLEVEL comparison filters emissions by completion level\n")
		}
		for i, conj := range x.filterExprs {
			if len(conj) == 0 {
				continue
			}
			texts := make([]string, len(conj))
			for j, c := range conj {
				texts[j] = ExprString(c)
			}
			fmt.Fprintf(&b, "  step %s filter: %s\n", x.def.Steps[i].Alias, strings.Join(texts, " AND "))
		}
		explainMergeLocked(&b, e, x, target)

	case *aggregateOp:
		b.WriteString("continuous aggregation\n")
		if x.win == nil {
			b.WriteString("  cumulative (emits running value per arrival)\n")
		} else if x.win.Rows {
			fmt.Fprintf(&b, "  sliding window: last %d rows\n", x.win.NRows)
		} else {
			fmt.Fprintf(&b, "  sliding window: RANGE %s PRECEDING (incremental removal: %v)\n", x.win.Preceding, x.removal)
		}
		fmt.Fprintf(&b, "  aggregates: %d; grouped: %v\n", len(x.aggs), len(x.groupBy) > 0)

	case *filterProjectOp:
		b.WriteString("stream transducer (filter/project)\n")
		if len(x.tables) > 0 {
			for _, jt := range x.tables {
				if jt.eqCol != "" {
					fmt.Fprintf(&b, "  lookup join %s via index candidate on %s\n", jt.alias, jt.eqCol)
				} else {
					fmt.Fprintf(&b, "  lookup join %s via scan\n", jt.alias)
				}
			}
		}
		for _, ex := range x.exists {
			kind := "EXISTS"
			if ex.node.Negate {
				kind = "NOT EXISTS"
			}
			fmt.Fprintf(&b, "  windowed %s over %s %s\n", kind, ex.alias, ex.win.windowText())
		}
		for _, te := range x.tableExists {
			kind := "EXISTS"
			if te.node.Negate {
				kind = "NOT EXISTS"
			}
			path := "scan"
			if te.eqCol != "" {
				path = "indexed lookup on " + te.eqCol
			}
			fmt.Fprintf(&b, "  table %s over %s via %s\n", kind, te.alias, path)
		}
		if x.deferred {
			fmt.Fprintf(&b, "  deferred decisions: FOLLOWING window holds outers %s past their arrival\n", x.maxFol)
		}

	default:
		fmt.Fprintf(&b, "%T\n", op)
	}

	var streams []string
	for s, aliases := range inputs {
		streams = append(streams, fmt.Sprintf("%s as %s", s, strings.Join(aliases, ",")))
	}
	sort.Strings(streams)
	fmt.Fprintf(&b, "  reads: %s\n", strings.Join(streams, "; "))
	if len(q.guards) > 0 {
		var guards []string
		for s, g := range q.guards {
			mode := "strict"
			if !g.strict {
				mode = "lenient"
			}
			guards = append(guards, fmt.Sprintf("%s: %s (%s)", s, g.describe(), mode))
		}
		sort.Strings(guards)
		fmt.Fprintf(&b, "  routing guard: %s\n", strings.Join(guards, "; "))
	}
	if target != "" {
		fmt.Fprintf(&b, "  sink: %s\n", target)
	}
	return strings.TrimRight(b.String(), "\n"), nil
}

// explainMergeLocked renders the plan-merging verdict for a compiled event
// query: whether registration would share an automaton, at which tier, with
// whom — or why not.
func explainMergeLocked(b *strings.Builder, e *Engine, x *eventOp, target string) {
	switch {
	case e.noMerge:
		b.WriteString("  plan merging: disabled (WithoutPlanMerge)\n")
	case target != "":
		b.WriteString("  plan merging: not applicable (derived-stream sink)\n")
	case x.merge == nil:
		b.WriteString("  plan merging: not applicable (non-SEQ operator)\n")
	case !x.merge.eligible:
		fmt.Fprintf(b, "  plan merging: ineligible (%s)\n", x.merge.reason)
	default:
		tier := tierIdentical
		if x.merge.prefixSafe {
			tier = tierPrefix
		}
		fmt.Fprintf(b, "  plan merging: eligible, %s tier", tier)
		if !x.merge.prefixSafe && x.merge.reason != "" {
			fmt.Fprintf(b, " (prefix tier out: %s)", x.merge.reason)
		}
		b.WriteString("\n")
		if g := e.mergeGroupForLocked(x.merge); g != nil {
			names := make([]string, 0, len(g.members))
			for _, mem := range g.members {
				names = append(names, mem.ev.q.describe())
			}
			fmt.Fprintf(b, "  would join group %d sharing its automaton with: %s\n",
				g.id, strings.Join(names, ", "))
		} else {
			b.WriteString("  no compatible group live: would found a new one\n")
		}
	}
}

// windowText renders a window clause briefly for EXPLAIN.
func (w *WindowClause) windowText() string {
	if w == nil {
		return ""
	}
	switch {
	case w.HasPreceding && w.HasFollowing:
		return fmt.Sprintf("[%s PRECEDING AND FOLLOWING %s]", w.Preceding, anchorOrCurrent(w.Anchor))
	case w.HasFollowing:
		return fmt.Sprintf("[%s FOLLOWING %s]", w.Following, anchorOrCurrent(w.Anchor))
	default:
		return fmt.Sprintf("[%s PRECEDING %s]", w.Preceding, anchorOrCurrent(w.Anchor))
	}
}
