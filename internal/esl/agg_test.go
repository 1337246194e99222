package esl

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/stream"
)

func sensorEngine(t *testing.T) *Engine {
	t.Helper()
	e := New()
	mustExec(t, e, `CREATE STREAM vitals(patient, bp, ts);`)
	return e
}

func pushVital(t *testing.T, e *Engine, at time.Duration, patient string, bp int64) {
	t.Helper()
	mustPush(t, e, "vitals", at, stream.Str(patient), stream.Int(bp), stream.Null)
}

func TestBuiltinAggregatesCumulative(t *testing.T) {
	e := sensorEngine(t)
	rows := collect(t, e, `SELECT count(*), sum(bp), avg(bp), min(bp), max(bp) FROM vitals`)
	pushVital(t, e, 1*time.Second, "p", 120)
	pushVital(t, e, 2*time.Second, "p", 130)
	pushVital(t, e, 3*time.Second, "p", 110)
	if len(*rows) != 3 {
		t.Fatalf("emissions = %d", len(*rows))
	}
	last := (*rows)[2]
	checks := map[string]stream.Value{
		"count": stream.Int(3),
		"sum":   stream.Int(360),
		"avg":   stream.Float(120),
		"min":   stream.Int(110),
		"max":   stream.Int(130),
	}
	for name, want := range checks {
		if got := last.Get(name); !got.Equal(want) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// The paper's §2.1 example: monitor the max/min blood pressure of a patient
// throughout the day — windowed aggregation.
func TestWindowedAggregate(t *testing.T) {
	e := sensorEngine(t)
	rows := collect(t, e, `
		SELECT min(bp), max(bp) FROM vitals OVER (RANGE 10 SECONDS PRECEDING CURRENT)
		WHERE patient = 'p7'`)
	pushVital(t, e, 1*time.Second, "p7", 120)
	pushVital(t, e, 2*time.Second, "p7", 150)
	pushVital(t, e, 3*time.Second, "other", 80) // filtered by WHERE
	pushVital(t, e, 20*time.Second, "p7", 110)  // 120/150 have left the window
	if len(*rows) != 3 {
		t.Fatalf("emissions = %v", *rows)
	}
	if mx, _ := (*rows)[1].Get("max").AsInt(); mx != 150 {
		t.Errorf("max in window = %v", (*rows)[1].Get("max"))
	}
	last := (*rows)[2]
	if mn, _ := last.Get("min").AsInt(); mn != 110 {
		t.Errorf("min after slide = %v", last.Get("min"))
	}
	if mx, _ := last.Get("max").AsInt(); mx != 110 {
		t.Errorf("max after slide = %v", last.Get("max"))
	}
}

func TestRowsWindowAggregate(t *testing.T) {
	e := sensorEngine(t)
	rows := collect(t, e, `SELECT sum(bp) FROM vitals OVER (ROWS 2 PRECEDING)`)
	for i, bp := range []int64{1, 2, 4, 8} {
		pushVital(t, e, time.Duration(i+1)*time.Second, "p", bp)
	}
	want := []int64{1, 3, 6, 12} // sliding sum of last 2 rows
	for i, w := range want {
		if got, _ := (*rows)[i].Vals[0].AsInt(); got != w {
			t.Errorf("emission %d = %v, want %d", i, (*rows)[i].Vals[0], w)
		}
	}
}

// Count products through the door per reader (GROUP BY + HAVING).
func TestGroupByHaving(t *testing.T) {
	e := New()
	mustExec(t, e, `CREATE STREAM door(reader_id, tag_id, read_time);`)
	rows := collect(t, e, `
		SELECT reader_id, count(*) AS n FROM door
		GROUP BY reader_id HAVING count(*) >= 2`)
	push := func(at time.Duration, rd string) {
		mustPush(t, e, "door", at, stream.Str(rd), stream.Str("t"), stream.Null)
	}
	push(1*time.Second, "east")
	push(2*time.Second, "west")
	push(3*time.Second, "east") // east reaches 2: emit
	push(4*time.Second, "east") // east 3: emit
	push(5*time.Second, "west") // west 2: emit
	if len(*rows) != 3 {
		t.Fatalf("rows = %v", *rows)
	}
	if (*rows)[0].Get("reader_id").String() != "east" {
		t.Errorf("first emission = %v", (*rows)[0])
	}
	if n, _ := (*rows)[2].Get("n").AsInt(); n != 2 || (*rows)[2].Get("reader_id").String() != "west" {
		t.Errorf("west emission = %v", (*rows)[2])
	}
}

func TestDistinctAggregate(t *testing.T) {
	e := New()
	mustExec(t, e, `CREATE STREAM door(reader_id, tag_id, read_time);`)
	rows := collect(t, e, `SELECT count(DISTINCT tag_id) FROM door`)
	for i, tag := range []string{"a", "b", "a", "c", "b"} {
		mustPush(t, e, "door", time.Duration(i+1)*time.Second, stream.Str("r"), stream.Str(tag), stream.Null)
	}
	if n, _ := (*rows)[4].Vals[0].AsInt(); n != 3 {
		t.Fatalf("distinct count = %v", (*rows)[4].Vals[0])
	}
}

// SQL-bodied UDA end-to-end: the ESL hallmark.
func TestSQLBodiedUDA(t *testing.T) {
	e := sensorEngine(t)
	mustExec(t, e, `
		CREATE AGGREGATE range_spread(nextval INT) : INT {
			TABLE state(lo INT, hi INT);
			INITIALIZE : { INSERT INTO state VALUES (nextval, nextval); }
			ITERATE : {
				UPDATE state SET lo = nextval WHERE nextval < lo;
				UPDATE state SET hi = nextval WHERE nextval > hi;
			}
			TERMINATE : { INSERT INTO RETURN SELECT hi - lo FROM state; }
		};`)
	rows := collect(t, e, `SELECT range_spread(bp) FROM vitals`)
	pushVital(t, e, 1*time.Second, "p", 120)
	pushVital(t, e, 2*time.Second, "p", 150)
	pushVital(t, e, 3*time.Second, "p", 100)
	want := []int64{0, 30, 50}
	for i, w := range want {
		if got, _ := (*rows)[i].Vals[0].AsInt(); got != w {
			t.Errorf("emission %d = %v, want %d", i, (*rows)[i].Vals[0], w)
		}
	}
}

func TestUDAWithGroupBy(t *testing.T) {
	e := sensorEngine(t)
	mustExec(t, e, `
		CREATE AGGREGATE mysum(nextval INT) : INT {
			TABLE state(total INT);
			INITIALIZE : { INSERT INTO state VALUES (nextval); }
			ITERATE : { UPDATE state SET total = total + nextval; }
			TERMINATE : { INSERT INTO RETURN SELECT total FROM state; }
		};`)
	rows := collect(t, e, `SELECT patient, mysum(bp) AS total FROM vitals GROUP BY patient`)
	pushVital(t, e, 1*time.Second, "a", 10)
	pushVital(t, e, 2*time.Second, "b", 5)
	pushVital(t, e, 3*time.Second, "a", 7)
	if len(*rows) != 3 {
		t.Fatalf("rows = %v", *rows)
	}
	if n, _ := (*rows)[2].Get("total").AsInt(); n != 17 || (*rows)[2].Get("patient").String() != "a" {
		t.Fatalf("grouped UDA = %v", (*rows)[2])
	}
}

func TestUDAValidation(t *testing.T) {
	e := New()
	bad := []string{
		// No state table.
		`CREATE AGGREGATE a1(x INT) : INT { INITIALIZE : { } ITERATE : { } TERMINATE : { } };`,
		// No params.
		`CREATE AGGREGATE a2() : INT { TABLE s(v INT); INITIALIZE : { } ITERATE : { } TERMINATE : { } };`,
	}
	for _, src := range bad {
		if _, err := e.Exec(src); err == nil {
			t.Errorf("should reject: %s", src)
		}
	}
}

func TestUDADelete(t *testing.T) {
	// A UDA that resets its state when it sees a sentinel, exercising
	// DELETE in a body.
	e := sensorEngine(t)
	mustExec(t, e, `
		CREATE AGGREGATE resettable_count(nextval INT) : INT {
			TABLE state(n INT);
			INITIALIZE : { INSERT INTO state VALUES (1); }
			ITERATE : {
				DELETE FROM state WHERE nextval = 0;
				UPDATE state SET n = n + 1 WHERE nextval <> 0;
				INSERT INTO state SELECT 0 FROM state WHERE n < 0;
			}
			TERMINATE : { INSERT INTO RETURN SELECT n FROM state; }
		};`)
	rows := collect(t, e, `SELECT resettable_count(bp) FROM vitals`)
	pushVital(t, e, 1*time.Second, "p", 5)
	pushVital(t, e, 2*time.Second, "p", 5)
	pushVital(t, e, 3*time.Second, "p", 0) // deletes state: NULL result
	if len(*rows) != 3 {
		t.Fatalf("rows = %v", *rows)
	}
	if got, _ := (*rows)[1].Vals[0].AsInt(); got != 2 {
		t.Errorf("count = %v", (*rows)[1].Vals[0])
	}
	if !(*rows)[2].Vals[0].IsNull() {
		t.Errorf("after reset = %v", (*rows)[2].Vals[0])
	}
}

// Go-registered custom aggregate.
func TestGoUDA(t *testing.T) {
	e := sensorEngine(t)
	e.Aggs().Register("geomean_ish", func() Accumulator { return &productAcc{} })
	rows := collect(t, e, `SELECT geomean_ish(bp) FROM vitals`)
	pushVital(t, e, 1*time.Second, "p", 2)
	pushVital(t, e, 2*time.Second, "p", 8)
	if got, _ := (*rows)[1].Vals[0].AsInt(); got != 16 {
		t.Fatalf("product = %v", (*rows)[1].Vals[0])
	}
}

type productAcc struct{ p int64 }

func (a *productAcc) Add(args []stream.Value) error {
	n, _ := args[0].AsInt()
	if a.p == 0 {
		a.p = 1
	}
	a.p *= n
	return nil
}
func (a *productAcc) Result() (stream.Value, error) { return stream.Int(a.p), nil }

func TestSnapshotAggregates(t *testing.T) {
	e := New()
	mustExec(t, e, `
		CREATE TABLE inventory(sku, qty);
		INSERT INTO inventory VALUES ('a', 3), ('b', 5), ('a', 2);
	`)
	rows, err := e.Query(`SELECT sku, sum(qty) AS total FROM inventory GROUP BY sku HAVING sum(qty) > 2`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0].Get("sku").String() != "a" {
		t.Fatalf("order: %v", rows)
	}
	if n, _ := rows[0].Get("total").AsInt(); n != 5 {
		t.Fatalf("sum = %v", rows[0])
	}
	// Empty-input aggregate yields one row.
	rows, err = e.Query(`SELECT count(*) FROM inventory WHERE sku = 'zzz'`)
	if err != nil || len(rows) != 1 {
		t.Fatalf("empty agg: %v, %v", rows, err)
	}
	if n, _ := rows[0].Vals[0].AsInt(); n != 0 {
		t.Fatalf("count = %v", rows[0])
	}
}

func TestWindowedAggregateStateEviction(t *testing.T) {
	e := sensorEngine(t)
	var got []Row
	q, err := e.RegisterQuery("w", `SELECT count(*) FROM vitals OVER (RANGE 5 SECONDS PRECEDING CURRENT)`, func(r Row) { got = append(got, r) })
	if err != nil {
		t.Fatal(err)
	}
	op := q.op.(*aggregateOp)
	for i := 0; i < 100; i++ {
		pushVital(t, e, time.Duration(i)*time.Second, "p", int64(i))
	}
	if op.fifo.len() > 6 {
		t.Fatalf("window buffer not evicted: %d", op.fifo.len())
	}
	if n, _ := got[99].Vals[0].AsInt(); n != 6 {
		t.Fatalf("windowed count = %v", got[99].Vals[0])
	}
	// Heartbeats shrink state too.
	if err := e.Heartbeat(ts(500 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if op.fifo.len() != 0 {
		t.Fatalf("advance did not evict: %d", op.fifo.len())
	}
}

func TestEngineErrors(t *testing.T) {
	e := New()
	mustExec(t, e, `CREATE STREAM s(a, ts); CREATE TABLE t(a);`)
	bad := []string{
		`SELECT a FROM nosuch`,
		`SELECT a FROM s, s2 WHERE a = 1`,                // unknown second source
		`SELECT a FROM s WHERE EXISTS (SELECT a FROM s)`, // unwindowed stream EXISTS
		`SELECT a FROM t`,                                // table-only continuous
		`SELECT count(a), * FROM s`,
		`SELECT a FROM s WHERE SEQ(x, y)`,       // args not FROM aliases
		`SELECT a FROM s, t WHERE SEQ(s, t)`,    // table in SEQ
		`SELECT s.a FROM s WHERE CLEVEL_SEQ(s)`, // CLEVEL without comparison
		`SELECT nosuchcol FROM s WHERE SEQ(s)`,  // unknown col in event query
	}
	for _, sql := range bad {
		if _, err := e.RegisterQuery("x", sql, nil); err == nil {
			t.Errorf("should fail: %s", sql)
		}
	}
	if err := e.Push("nosuch", 0); err == nil {
		t.Error("push to unknown stream should fail")
	}
	if err := e.Push("s", 0, stream.Int(1)); err == nil {
		t.Error("arity mismatch should fail")
	}
	if _, err := e.Exec(`CREATE STREAM s(a)`); err == nil {
		t.Error("duplicate stream should fail")
	}
	if _, err := e.Exec(`CREATE TABLE s(a)`); err == nil {
		t.Error("stream/table name collision should fail")
	}
	if _, err := e.Query(`SELECT a FROM s`); err == nil {
		t.Error("snapshot over unretained stream should fail")
	}
	if err := e.RetainHistory("nosuch", time.Second); err == nil {
		t.Error("retain on unknown stream should fail")
	}
	if err := e.Subscribe("nosuch", nil); err == nil {
		t.Error("subscribe to unknown stream should fail")
	}
}

func TestDerivedStreamCycleGuard(t *testing.T) {
	e := New()
	mustExec(t, e, `CREATE STREAM a(v, ts); CREATE STREAM b(v, ts);`)
	mustExec(t, e, `INSERT INTO b SELECT v, ts FROM a;`)
	mustExec(t, e, `INSERT INTO a SELECT v, ts FROM b;`)
	err := e.Push("a", ts(time.Second), stream.Int(1), stream.Null)
	if err == nil {
		t.Fatal("cycle should be detected")
	}
}

func TestLimitAndDistinctOnTransform(t *testing.T) {
	e := New()
	mustExec(t, e, `CREATE STREAM s(v, ts);`)
	rows := collect(t, e, `SELECT DISTINCT v FROM s LIMIT 2`)
	for i, v := range []int64{1, 1, 2, 2, 3} {
		mustPush(t, e, "s", time.Duration(i+1)*time.Second, stream.Int(v), stream.Null)
	}
	if len(*rows) != 2 {
		t.Fatalf("rows = %v", *rows)
	}
	if fmt.Sprint((*rows)[0].Vals[0], (*rows)[1].Vals[0]) != "1 2" {
		t.Fatalf("rows = %v", *rows)
	}
}
