package esl

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/stream"
)

// A window anchor must carry an event-time column; one without is rejected
// at registration instead of failing on every outer tuple.
func TestWindowAnchorWithoutTimeColumn(t *testing.T) {
	e := New()
	mustExec(t, e, `
		CREATE STREAM doors(tag, loc);
		CREATE STREAM reads(tag, tagtime);`)
	_, err := e.RegisterQuery("x", `SELECT d.tag FROM doors AS d WHERE NOT EXISTS
		(SELECT * FROM TABLE(reads OVER (RANGE 1 SECONDS PRECEDING CURRENT)) AS r
		 WHERE r.tag = d.tag)`, nil)
	if err == nil || !strings.Contains(err.Error(), `cannot resolve event time of window anchor "d"`) {
		t.Fatalf("err = %v, want a registration-time anchor error", err)
	}
}

// The anchor's time columns are tried in order, falling through a value
// that is not a time: here read_time holds junk and tagtime decides.
func TestWindowAnchorTimeFallThrough(t *testing.T) {
	e := New()
	mustExec(t, e, `
		CREATE STREAM outer_s(tag, read_time, tagtime);
		CREATE STREAM inner_s(tag, tagtime);`)
	rows := collect(t, e, `SELECT o.tag FROM outer_s AS o WHERE EXISTS
		(SELECT * FROM TABLE(inner_s OVER (RANGE 1 SECONDS PRECEDING CURRENT)) AS i
		 WHERE i.tag = o.tag)`)
	mustPush(t, e, "inner_s", 4500*time.Millisecond, stream.Str("x"), stream.Null)
	// Arrives at 10s, but its tagtime anchors the window at [4s, 5s].
	mustPush(t, e, "outer_s", 10*time.Second, stream.Str("x"), stream.Str("junk"), stream.Time(stream.TS(5*time.Second)))
	if len(*rows) != 1 {
		t.Fatalf("rows = %v, want the tagtime-anchored match", *rows)
	}
}

// Derived-stream emission re-enters an operator mid-evaluation: a query
// feeding its own input stream through a two-row table join must finish
// each outer row with its own bindings, not the nested evaluation's.
func TestFrameReentry(t *testing.T) {
	e := New()
	mustExec(t, e, `
		CREATE STREAM s(v, tag, ts);
		CREATE TABLE tags(tag, label);
		INSERT INTO tags VALUES ('a', 'x'), ('a', 'y');
		INSERT INTO s SELECT s.v + 1, s.tag, s.ts FROM s, tags
		WHERE tags.tag = s.tag AND s.v < 2;`)
	var got []string
	if err := e.Subscribe("s", func(tu *stream.Tuple) { got = append(got, tu.Vals[0].String()) }); err != nil {
		t.Fatal(err)
	}
	mustPush(t, e, "s", time.Second, stream.Int(0), stream.Str("a"), stream.Null)
	if want := "[0 1 2 2 1 2 2]"; fmt.Sprint(got) != want {
		t.Fatalf("s = %v, want %s", got, want)
	}
}

// A malformed constant epc_match pattern is a compile error on every path,
// snapshot queries and UDA bodies included.
func TestEPCPatternRejectedEverywhere(t *testing.T) {
	e := New()
	mustExec(t, e, `CREATE TABLE codes(code); INSERT INTO codes VALUES ('20.1.5');`)
	if _, err := e.Query(`SELECT code FROM codes WHERE epc_match(code, '20.[9999-5]')`); err == nil ||
		!strings.Contains(err.Error(), "epc_match pattern") {
		t.Errorf("snapshot query: err = %v", err)
	}
	_, err := e.Exec(`CREATE AGGREGATE bad(c) : INT {
		TABLE st(n INT);
		INITIALIZE : { INSERT INTO st VALUES (1); }
		ITERATE : { UPDATE st SET n = n + 1 WHERE epc_match(c, '20.[9999-5]'); }
		TERMINATE : { INSERT INTO RETURN SELECT n FROM st; }
	};`)
	if err == nil || !strings.Contains(err.Error(), "epc_match pattern") {
		t.Errorf("UDA body: err = %v", err)
	}
}

// Unknown columns surface when a statement compiles, on every path.
func TestUnknownColumnsAtRegistration(t *testing.T) {
	e := New()
	mustExec(t, e, `CREATE STREAM s(a, ts); CREATE TABLE t(k, v); CREATE STREAM R1(readerid, tagid, tagtime); CREATE STREAM R2(readerid, tagid, tagtime);`)
	for _, q := range []string{
		`SELECT a FROM s WHERE nope = 1`,
		`SELECT s.nope FROM s`,
		`SELECT a, count(*) FROM s GROUP BY nope`,
		`SELECT R2.tagid FROM R1, R2 WHERE SEQ(R1, R2) AND R1.nope = 'x'`,
		`SELECT R2.tagid FROM R1, R2 WHERE SEQ(R1*, R2) AND R1.tagid <> R1.previous.nope`,
	} {
		if _, err := e.RegisterQuery("q", q, nil); err == nil || !strings.Contains(err.Error(), "unknown column") {
			t.Errorf("%s: err = %v", q, err)
		}
	}
	if _, err := e.Exec(`UPDATE t SET v = nope;`); err == nil || !strings.Contains(err.Error(), "unknown column") {
		t.Errorf("UPDATE: err = %v", err)
	}
}
