package esl

import (
	"strings"
	"testing"
	"time"

	"repro/internal/stream"
)

// A pre-built tuple names its stream by its schema, and journal replay
// delivers it by that name. PushTuple and Feed must therefore refuse a tuple
// whose schema belongs to another stream: accepting it live while replay
// routes it elsewhere makes live and recovered output disagree.
func TestPushTupleForeignSchemaRejected(t *testing.T) {
	const script = `CREATE STREAM a(x, ts); CREATE STREAM b(y, ts);`
	run := func(e *Engine) (*[]Row, *[]Row) {
		mustExec(t, e, script)
		return collect(t, e, "SELECT x FROM a"), collect(t, e, "SELECT y FROM b")
	}
	dir := t.TempDir()
	live := New(WithJournal(dir))
	liveA, liveB := run(live)
	mustPush(t, live, "a", time.Second, stream.Int(1), stream.Time(ts(time.Second)))
	sa, _ := live.StreamSchema("a")
	foreign := stream.MustTuple(sa, ts(2*time.Second), stream.Int(7), stream.Time(ts(2*time.Second)))
	for name, push := range map[string]func() error{
		"PushTuple": func() error { return live.PushTuple("b", foreign) },
		"Feed":      func() error { return live.Feed("b", stream.Of(foreign)) },
	} {
		err := push()
		if err == nil || !strings.Contains(err.Error(), `tuple schema "a" does not match stream "b"`) {
			t.Fatalf("%s of a's tuple into b: err = %v", name, err)
		}
	}
	mustPush(t, live, "b", 3*time.Second, stream.Int(3), stream.Time(ts(3*time.Second)))

	rec := New(WithJournal(dir))
	recA, recB := run(rec)
	if err := rec.Recover(""); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		live, rec *[]Row
		want      string
	}{
		{"a", liveA, recA, "[x=1 @1s]"},
		{"b", liveB, recB, "[y=3 @3s]"},
	} {
		if got, rgot := rowsString(*c.live), rowsString(*c.rec); got != c.want || rgot != c.want {
			t.Errorf("%s: live %s, recovered %s, want %s", c.name, got, rgot, c.want)
		}
	}
}

func rowsString(rows []Row) string {
	parts := make([]string, len(rows))
	for i, r := range rows {
		parts[i] = r.String()
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// A query cycle (a -> b -> a through INSERT INTO) re-enters the engine at
// the same timestamp forever; the delivery path must stop it at its depth
// cap, on every entry point and whether or not the engine runs
// tuple-at-a-time.
func TestDerivedRecursionCap(t *testing.T) {
	const cycle = `
		CREATE STREAM a(x, ts);
		CREATE STREAM b(x, ts);
		INSERT INTO b SELECT x, ts FROM a;
		INSERT INTO a SELECT x, ts FROM b;`
	// An exception timer makes the engine time-sensitive.
	const timer = `
		CREATE STREAM c(tagid, tagtime);
		CREATE STREAM d(tagid, tagtime);
		SELECT c.tagid FROM c, d
		WHERE EXCEPTION_SEQ(c, d) OVER [1 HOURS FOLLOWING c] AND c.tagid = d.tagid;`
	for _, sensitive := range []bool{false, true} {
		for _, entry := range []string{"Push", "PushBatch"} {
			e := New()
			mustExec(t, e, cycle)
			if sensitive {
				mustExec(t, e, timer)
			}
			if e.TimeSensitive() != sensitive {
				t.Fatalf("TimeSensitive() = %v, want %v", e.TimeSensitive(), sensitive)
			}
			at := ts(time.Second)
			var err error
			if entry == "Push" {
				err = e.Push("a", at, stream.Int(1), stream.Time(at))
			} else {
				sa, _ := e.StreamSchema("a")
				tu := stream.MustTuple(sa, at, stream.Int(1), stream.Time(at))
				err = e.PushBatch([]stream.Item{stream.Heartbeat(at), stream.Of(tu)})
			}
			if err == nil || !strings.Contains(err.Error(), "derived-stream recursion exceeds 64") {
				t.Errorf("sensitive=%v %s: err = %v", sensitive, entry, err)
			}
		}
	}
}
