package esl

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/db"
	"repro/internal/stream"
)

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
	var agg *aggregation
	var proj *projection
	if e.hasAggregates(sel) {
		if agg, err = e.compileAggregation(sel, schemas, sc); err != nil {
			return nil, err
		}
		proj = agg.proj
	} else if proj, err = compileProjection(sel, schemas, sc); err != nil {
		return nil, err
	}

	// Enumerate the cross product, filter, and either project per row or
	// feed the groups. A group projects against the rows of its first input,
	// kept here in group order.
	var out []Row
	stage := newOutputStage(sel.Distinct, -1) // LIMIT applies after ORDER BY
	emit := func(vals []stream.Value) {
		if stage.admit(vals) {
			out = append(out, proj.row(vals, now))
		}
	}
	var groups []*group
	var firsts [][][]stream.Value
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
		if agg == nil {
			vals, err := proj.build(f)
			if err == nil {
				emit(vals)
			}
			return err
		}
		g, fresh, _, err := agg.accumulate(f)
		if fresh {
			groups = append(groups, g)
			firsts = append(firsts, slices.Clone(f.slots))
		}
		return err
	}
	if err := iterate(0); err != nil {
		return nil, err
	}

	if agg != nil {
		if len(groups) == 0 && len(sel.GroupBy) == 0 {
			// Empty input still yields one row of empty aggregates, projected
			// over NULLs.
			g, _, _ := agg.groupFor(f)
			groups, firsts = append(groups, g), append(firsts, nil)
		}
		for i, g := range groups {
			clear(f.slots)
			copy(f.slots, firsts[i])
			vals, ok, err := agg.project(g, f)
			if err != nil {
				return nil, err
			}
			if ok {
				emit(vals)
			}
		}
	}

	// ORDER BY sorts on its keys; grouped results without it sort on every
	// column, so their order is deterministic.
	var keys []int
	if len(sel.OrderBy) > 0 {
		if keys, err = resolveOrderColumns(sel, proj); err != nil {
			return nil, err
		}
	} else if len(sel.GroupBy) > 0 {
		for k := range proj.names {
			keys = append(keys, k)
		}
	}
	if len(keys) > 0 {
		sort.SliceStable(out, func(i, j int) bool {
			for k, col := range keys {
				if c, ok := out[i].Vals[col].Compare(out[j].Vals[col]); ok && c != 0 {
					return (c < 0) != (k < len(sel.OrderBy) && sel.OrderBy[k].Desc)
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
