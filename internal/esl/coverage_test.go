package esl

import (
	"testing"
	"time"

	"repro/internal/stream"
)

// A previous-operator constraint that is NOT the MaxGap shape goes through
// the generic bind-time predicate path (the frame's star predecessor).
func TestGenericPreviousPredicate(t *testing.T) {
	e := New()
	declareContainment(t, e)
	op, rows := eventOpOf(t, e, `
		SELECT COUNT(R1*), R2.tagid FROM R1, R2
		WHERE SEQ(R1*, R2) MODE CHRONICLE
		AND R1.tagid <> R1.previous.tagid`)
	if op.def.Steps[0].MaxGap != 0 {
		t.Fatal("non-time previous constraint must not become MaxGap")
	}
	if op.def.Pred == nil {
		t.Fatal("previous constraint should be a residual predicate")
	}
	pushQC(t, e, "R1", 1*time.Second, "a")
	pushQC(t, e, "R1", 2*time.Second, "b") // different tag: extends
	pushQC(t, e, "R1", 3*time.Second, "b") // same as previous: breaks absorb
	pushQC(t, e, "R2", 4*time.Second, "case")
	if len(*rows) != 1 {
		t.Fatalf("rows = %v", *rows)
	}
	// The repeated "b" failed the previous-constraint: only (a, b) grouped
	// ... the third tuple started a fresh run which CHRONICLE matches
	// first? No: oldest run (a,b) is matched first.
	if n, _ := (*rows)[0].Get("count_R1").AsInt(); n != 2 {
		t.Fatalf("COUNT(R1*) = %v", (*rows)[0].Get("count_R1"))
	}
}

// Per-item star projection referencing previous: the multi-return rows can
// compute inter-arrival deltas.
func TestPerItemPreviousProjection(t *testing.T) {
	e := New()
	declareContainment(t, e)
	_, rows := eventOpOf(t, e, `
		SELECT R1.tagid, R1.tagtime - R1.previous.tagtime AS gap
		FROM R1, R2 WHERE SEQ(R1*, R2) MODE CHRONICLE`)
	pushQC(t, e, "R1", 1*time.Second, "p1")
	pushQC(t, e, "R1", 3*time.Second, "p2")
	pushQC(t, e, "R2", 4*time.Second, "case")
	if len(*rows) != 2 {
		t.Fatalf("rows = %v", *rows)
	}
	if !(*rows)[0].Get("gap").IsNull() {
		t.Errorf("first item has no previous: %v", (*rows)[0])
	}
	if n, _ := (*rows)[1].Get("gap").AsInt(); n != int64(2*time.Second) {
		t.Errorf("gap = %v", (*rows)[1].Get("gap"))
	}
}

// INSERT INTO an undeclared stream auto-creates its schema from the
// projection (projectionNames).
func TestAutoDeclaredDerivedStream(t *testing.T) {
	e := New()
	mustExec(t, e, `CREATE STREAM src(a, b, ts);`)
	mustExec(t, e, `INSERT INTO derived SELECT a, b AS bee, a + b FROM src;`)
	schema, ok := e.StreamSchema("derived")
	if !ok {
		t.Fatal("derived stream not created")
	}
	if schema.Len() != 3 {
		t.Fatalf("schema = %v", schema)
	}
	if _, ok := schema.Col("bee"); !ok {
		t.Fatalf("alias not used as column name: %v", schema)
	}
	var got []*stream.Tuple
	e.Subscribe("derived", func(tu *stream.Tuple) { got = append(got, tu) })
	mustPush(t, e, "src", time.Second, stream.Int(1), stream.Int(2), stream.Null)
	if len(got) != 1 || !got[0].Get(2).Equal(stream.Int(3)) {
		t.Fatalf("derived = %v", got)
	}
	// Duplicate output names get disambiguated.
	mustExec(t, e, `INSERT INTO derived2 SELECT a, a FROM src;`)
	schema2, _ := e.StreamSchema("derived2")
	if _, ok := schema2.Col("a_2"); !ok {
		t.Fatalf("duplicate column not renamed: %v", schema2)
	}
}

// Windowed DISTINCT aggregate exercises multiset removal.
func TestWindowedDistinctAggregate(t *testing.T) {
	e := New()
	mustExec(t, e, `CREATE STREAM door(reader_id, tag_id, read_time);`)
	rows := collect(t, e, `
		SELECT count(DISTINCT tag_id) FROM door OVER (RANGE 10 SECONDS PRECEDING CURRENT)`)
	push := func(at time.Duration, tag string) {
		mustPush(t, e, "door", at, stream.Str("r"), stream.Str(tag), stream.Null)
	}
	push(1*time.Second, "a")
	push(2*time.Second, "a")
	push(3*time.Second, "b")
	push(20*time.Second, "a") // both 1s/2s/3s readings evicted
	want := []int64{1, 1, 2, 1}
	for i, w := range want {
		if n, _ := (*rows)[i].Vals[0].AsInt(); n != w {
			t.Errorf("emission %d = %v, want %d", i, (*rows)[i].Vals[0], w)
		}
	}
}

// SUM/AVG over floats and mixed int/float, plus windowed removal of float
// entries.
func TestNumericAggregateEdges(t *testing.T) {
	e := New()
	mustExec(t, e, `CREATE STREAM m(v, ts);`)
	rows := collect(t, e, `SELECT sum(v), avg(v) FROM m OVER (RANGE 10 SECONDS PRECEDING CURRENT)`)
	mustPush(t, e, "m", 1*time.Second, stream.Float(1.5), stream.Null)
	mustPush(t, e, "m", 2*time.Second, stream.Int(2), stream.Null)
	mustPush(t, e, "m", 20*time.Second, stream.Float(0.5), stream.Null)
	last := (*rows)[2]
	if s, _ := last.Vals[0].AsFloat(); s != 0.5 {
		t.Errorf("sum after slide = %v", last.Vals[0])
	}
	mixed := (*rows)[1]
	if s, _ := mixed.Vals[0].AsFloat(); s != 3.5 {
		t.Errorf("mixed sum = %v", mixed.Vals[0])
	}
	if a, _ := mixed.Vals[1].AsFloat(); a != 1.75 {
		t.Errorf("avg = %v", mixed.Vals[1])
	}
}

// UDA bodies may SELECT from state with WHERE and star projection.
func TestUDABodySelectForms(t *testing.T) {
	e := New()
	mustExec(t, e, `
		CREATE STREAM m(v, ts);
		CREATE AGGREGATE top_two_sum(nextval INT) : INT {
			TABLE vals(x INT);
			INITIALIZE : { INSERT INTO vals VALUES (nextval); }
			ITERATE : { INSERT INTO vals VALUES (nextval); }
			TERMINATE : {
				INSERT INTO RETURN SELECT sum_of_best(x) FROM vals;
			}
		};`)
	// sum_of_best is not defined: Result should fail gracefully as an
	// engine error when the aggregate terminates.
	_, err := e.RegisterQuery("x", `SELECT top_two_sum(v) FROM m`, nil)
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	if err := e.Push("m", ts(time.Second), stream.Int(1), stream.Null); err == nil {
		t.Fatal("unknown function inside UDA TERMINATE should surface as an error")
	}
}

// SelectString covers ORDER BY, DISTINCT, LIMIT and windowed FROM items.
func TestSelectStringRendering(t *testing.T) {
	src := `SELECT DISTINCT a, count(*) AS n FROM s OVER (RANGE 5 SECONDS PRECEDING CURRENT) WHERE a > 1 GROUP BY a HAVING count(*) > 1 ORDER BY n DESC LIMIT 3`
	s, err := ParseOne(src)
	if err != nil {
		t.Fatal(err)
	}
	printed := SelectString(s.(*Select))
	s2, err := ParseOne(printed)
	if err != nil {
		t.Fatalf("reparse %q: %v", printed, err)
	}
	if again := SelectString(s2.(*Select)); again != printed {
		t.Fatalf("not a fixpoint:\n%s\n%s", printed, again)
	}
}

// Time arithmetic error paths and the remaining arith edges.
func TestArithEdgeCases(t *testing.T) {
	sch := stream.MustSchema("s", stream.Field{Name: "tagtime"})
	tu := stream.MustTuple(sch, stream.TS(time.Second), stream.Null)
	s := bound{"s", tu}
	bad := []string{
		`s.tagtime * 2`,         // time multiplication
		`'x' + 1`,               // string arithmetic
		`2.5 % 2`,               // float modulo
		`-'x'`,                  // unary minus on string
		`NOT 'x'`,               // NOT on string
		`'x' < 1`,               // incomparable
		`1 LIKE 'x'`,            // LIKE on non-strings
		`'a' BETWEEN 1 AND 'b'`, // incomparable BETWEEN
	}
	for _, src := range bad {
		q, err := ParseOne("SELECT " + src + " FROM dual")
		if err != nil {
			t.Fatalf("parse %s: %v", src, err)
		}
		if _, err := compileRun(q.(*Select).Items[0].Expr, s); err == nil {
			t.Errorf("%s should error", src)
		}
	}
	// int + time is a Time.
	q, _ := ParseOne("SELECT 5 + s.tagtime FROM dual")
	v, err := compileRun(q.(*Select).Items[0].Expr, s)
	if err != nil || v.Kind() != stream.KindTime {
		t.Errorf("int + time = %v (%v), %v", v, v.Kind(), err)
	}
}
