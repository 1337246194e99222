package esl

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/snapshot"
	"repro/internal/stream"
)

// Grouping and de-duplication are exact: 2^53 and 2^53+1 hash alike
// (Value.Hash folds ints through float64) but are different values, so
// every DISTINCT, GROUP BY and LIMIT below must keep them apart.

const big = int64(1) << 53

var bigVals = []int64{big, big + 1, big}

func bigStream(t *testing.T) *Engine {
	t.Helper()
	e := New()
	mustExec(t, e, `CREATE STREAM s(k, v, ts);`)
	return e
}

func pushBig(t *testing.T, e *Engine) {
	t.Helper()
	for i, v := range bigVals {
		mustPush(t, e, "s", time.Duration(i+1)*time.Second, stream.Str("a"), stream.Int(v), stream.Null)
	}
}

func bigTable(t *testing.T, vals ...int64) *Engine {
	t.Helper()
	e := New()
	mustExec(t, e, `CREATE TABLE t(k, v);`)
	tbl, _ := e.Store().Get("t")
	for _, v := range vals {
		if _, err := tbl.Insert([]stream.Value{stream.Str("a"), stream.Int(v)}); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func rowStrings(rows []Row) string {
	var b bytes.Buffer
	for _, r := range rows {
		fmt.Fprintf(&b, "%v;", r.Vals)
	}
	return b.String()
}

func TestContinuousDistinctIsExact(t *testing.T) {
	e := bigStream(t)
	rows := collect(t, e, `SELECT DISTINCT v FROM s`)
	pushBig(t, e)
	if len(*rows) != 2 {
		t.Fatalf("SELECT DISTINCT emitted %s, want 2 rows", rowStrings(*rows))
	}
}

func TestContinuousCountDistinctIsExact(t *testing.T) {
	e := bigStream(t)
	rows := collect(t, e, `SELECT count(DISTINCT v) AS n FROM s`)
	pushBig(t, e)
	if got := rowStrings(*rows); got != "[1];[2];[2];" {
		t.Fatalf("count(DISTINCT v) emitted %s, want 1,2,2", got)
	}
}

func TestAdHocCountDistinct(t *testing.T) {
	e := bigTable(t, 1, 1, 2)
	rows, err := e.Query(`SELECT count(DISTINCT v) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if got := rowStrings(rows); got != "[2];" {
		t.Fatalf("count(DISTINCT v) = %s, want 2", got)
	}
}

func TestAdHocGroupByIsExact(t *testing.T) {
	e := bigTable(t, bigVals...)
	rows, err := e.Query(`SELECT v, count(*) FROM t GROUP BY v`)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("[%d 2];[%d 1];", big, big+1)
	if got := rowStrings(rows); got != want {
		t.Fatalf("GROUP BY v = %s, want %s", got, want)
	}
}

func TestAdHocDistinctIsExact(t *testing.T) {
	e := bigTable(t, bigVals...)
	rows, err := e.Query(`SELECT DISTINCT v FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("SELECT DISTINCT = %s, want 2 rows", rowStrings(rows))
	}
}

// Continuous aggregates honour DISTINCT and LIMIT through the same output
// stage as filter-project queries.
func TestContinuousAggregateDistinctAndLimit(t *testing.T) {
	for _, c := range []struct {
		sql  string
		want string
	}{
		{`SELECT k, count(*) AS n FROM s GROUP BY k LIMIT 1`, "[a 1];"},
		{`SELECT DISTINCT k FROM s GROUP BY k`, "[a];"},
	} {
		e := bigStream(t)
		rows := collect(t, e, c.sql)
		pushBig(t, e)
		if got := rowStrings(*rows); got != c.want {
			t.Errorf("%s emitted %s, want %s", c.sql, got, c.want)
		}
	}
}

// A ROWS window holds at most N entries; a snapshot whose window holds more
// (here: written by a ROWS 4 query, restored into a ROWS 2 one) is state
// the engine can never produce and must not load.
func TestRestoreRejectsOverlongRowsWindow(t *testing.T) {
	build := func(n int) *Engine {
		e := bigStream(t)
		if _, err := e.RegisterQuery("w", fmt.Sprintf(`SELECT count(*) FROM s OVER (ROWS %d PRECEDING)`, n), nil); err != nil {
			t.Fatal(err)
		}
		return e
	}
	src := build(4)
	for i := 0; i < 4; i++ {
		mustPush(t, src, "s", time.Duration(i+1)*time.Second, stream.Str("a"), stream.Int(int64(i)), stream.Null)
	}
	var buf bytes.Buffer
	if err := src.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if err := build(2).Restore(&buf); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("restore of a 4-entry window into ROWS 2: %v, want ErrCorrupt", err)
	}
}

// The loader rejects the other states the engine can never produce: a
// RANGE window out of timestamp order, and a group or DISTINCT count of 0
// or less (a cumulative group always holds a row; a multiset drops a value
// with its last occurrence). Each case returns the body to load.
func TestOpStateLoadRejectsImpossibleState(t *testing.T) {
	save := func(op *aggregateOp) []byte {
		enc := snapshot.NewEncoder()
		if err := op.saveOpState(enc); err != nil {
			t.Fatal(err)
		}
		return enc.Buf
	}
	for _, c := range []struct {
		name    string
		shape   int // opStateShapes index
		corrupt func(op *aggregateOp) []byte
	}{
		{"range out of order", 3, func(op *aggregateOp) []byte {
			// The window is the body's tail: save it empty, then write
			// its rows newest first.
			var rows []winEntry
			op.fifo.Each(func(r winEntry) bool { rows = append(rows, r); return true })
			op.fifo = winRows{}
			body := save(op)
			enc := snapshot.Writer{Buf: body[:len(body)-1]}
			enc.Uvarint(uint64(len(rows)))
			for i := len(rows) - 1; i >= 0; i-- {
				enc.TS(rows[i].ts)
				enc.Uvarint(uint64(rows[i].group.ord))
				for _, args := range rows[i].args {
					enc.Values(args)
				}
			}
			return enc.Buf
		}},
		{"cumulative group count 0", 1, func(op *aggregateOp) []byte {
			for _, chain := range op.groups.buckets {
				chain[0].n = 0
			}
			return save(op)
		}},
		{"distinct count 0", 3, func(op *aggregateOp) []byte {
			for _, chain := range op.groups.buckets {
				for _, m := range chain[0].distinct[0].buckets {
					m[0].n = 0
				}
			}
			return save(op)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			e, q := opStateQuery(t, c.shape)
			for _, tu := range opStatePool(e) {
				if err := e.PushTuple("s", tu); err != nil {
					t.Fatal(err)
				}
			}
			_, _, _, _, err := loadOpStateBody(t, c.shape, c.corrupt(q.op.(*aggregateOp)))
			if !errors.Is(err, snapshot.ErrCorrupt) {
				t.Fatalf("load: %v, want ErrCorrupt", err)
			}
		})
	}
}
