package shard

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/esl"
	"repro/internal/stream"
)

// asofEngine is the surface the AS OF scenario drives on both engines.
type asofEngine interface {
	Exec(script string) ([]*esl.Query, error)
	Push(streamName string, ts stream.Timestamp, vals ...stream.Value) error
	Query(sql string) ([]Row, error)
	CheckpointNow() error
	LastLSN() uint64
}

const asofDDL = `
	CREATE STREAM moves(tagid, loc);
	CREATE TABLE location_history(tagid, loc, since);
	CREATE INDEX ON location_history(tagid);
`

// asofState runs `SELECT ... FROM location_history [AS OF anchor]` and
// flattens the result for byte-identity comparison.
func asofState(t *testing.T, e asofEngine, anchor string) string {
	t.Helper()
	sql := `SELECT tagid, loc, since FROM location_history`
	if anchor != "" {
		sql += " AS OF " + anchor
	}
	rows, err := e.Query(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%v%v;", r.Names, r.Vals)
	}
	return b.String()
}

type asofEpoch struct {
	lsn   uint64
	at    time.Duration
	state string
}

// asofScenario checkpoints e at three LSNs while the table mutates, records
// each checkpointed state, then moves the table head and the journal past
// the last cut.
func asofScenario(t *testing.T, e asofEngine) []asofEpoch {
	t.Helper()
	exec := func(script string) {
		t.Helper()
		if _, err := e.Exec(script); err != nil {
			t.Fatal(err)
		}
	}
	push := func(i int, at time.Duration) {
		t.Helper()
		if err := e.Push("moves", stream.TS(at), stream.Str(fmt.Sprintf("t%d", i)), stream.Str("dock")); err != nil {
			t.Fatal(err)
		}
	}
	exec(asofDDL)
	var epochs []asofEpoch
	for ep := 1; ep <= 3; ep++ {
		exec(fmt.Sprintf(`INSERT INTO location_history VALUES ('t%d', 'dock', %d), ('t%d', 'gate', %d)`,
			ep, ep, ep+10, ep))
		if ep == 2 {
			exec(`UPDATE location_history SET loc = 'truck' WHERE tagid = 't1'`)
		}
		at := time.Duration(ep) * 10 * time.Second
		for i := 0; i < 3; i++ {
			push(ep*10+i, at+time.Duration(i)*time.Second)
		}
		if err := e.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
		epochs = append(epochs, asofEpoch{e.LastLSN(), at + 2*time.Second, asofState(t, e, "")})
	}
	exec(`INSERT INTO location_history VALUES ('t99', 'er', 9)`)
	push(99, 40*time.Second)
	if asofState(t, e, "") == epochs[2].state {
		t.Fatal("head should differ from the last checkpoint")
	}
	return epochs
}

// checkAsOfHistory verifies every checkpointed state reads back byte for
// byte through LSN and event-time anchors, and that an anchor between cuts —
// or between the last cut and the present — resolves down to the older cut.
func checkAsOfHistory(t *testing.T, label string, e asofEngine, epochs []asofEpoch) {
	t.Helper()
	for i, ep := range epochs {
		if got := asofState(t, e, fmt.Sprintf("LSN %d", ep.lsn)); got != ep.state {
			t.Fatalf("%s: AS OF LSN %d = %s, want %s", label, ep.lsn, got, ep.state)
		}
		if got := asofState(t, e, fmt.Sprintf("%d MILLISECONDS", ep.at.Milliseconds())); got != ep.state {
			t.Fatalf("%s: AS OF TIMESTAMP epoch %d = %s, want %s", label, i+1, got, ep.state)
		}
	}
	if got := asofState(t, e, fmt.Sprintf("LSN %d", epochs[1].lsn-1)); got != epochs[0].state {
		t.Fatalf("%s: between-checkpoint anchor did not resolve down", label)
	}
	if got := asofState(t, e, fmt.Sprintf("LSN %d", e.LastLSN())); got != epochs[2].state {
		t.Fatalf("%s: anchor past the last cut = %s, want the last cut %s", label, got, epochs[2].state)
	}
}

// TestShardedAsOf: a journaled sharded engine cuts table versions at its
// checkpoints, so AS OF reads them — live and on an engine recovered from the
// same directory — exactly as a serial engine fed the same items does.
func TestShardedAsOf(t *testing.T) {
	serial := esl.New(esl.WithJournal(t.TempDir()))
	want := asofScenario(t, serial)
	checkAsOfHistory(t, "serial", serial, want)

	dir := t.TempDir()
	e := New(2, esl.WithJournal(dir))
	got := asofScenario(t, e)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("sharded checkpoints = %v, serial = %v", got, want)
	}
	checkAsOfHistory(t, "live", e, got)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	r := New(2, esl.WithJournal(dir))
	defer r.Close()
	if _, err := r.Exec(asofDDL); err != nil {
		t.Fatal(err)
	}
	if err := r.Recover(dir); err != nil {
		t.Fatal(err)
	}
	checkAsOfHistory(t, "recovered", r, got)
}

// TestShardedAsOfRetention: WithRetainVersions(n) bounds a sharded engine's
// history to the n newest checkpoint cuts, as on the serial engine.
func TestShardedAsOfRetention(t *testing.T) {
	e := New(2, esl.WithJournal(t.TempDir()), esl.WithRetainVersions(2))
	defer e.Close()
	if _, err := e.Exec(`CREATE STREAM s(k); CREATE TABLE ti(k, v);`); err != nil {
		t.Fatal(err)
	}
	var lsns []uint64
	for i := 0; i < 4; i++ {
		if _, err := e.Exec(fmt.Sprintf(`INSERT INTO ti VALUES (%d, 'v%d')`, i, i)); err != nil {
			t.Fatal(err)
		}
		if err := e.Push("s", stream.TS(time.Duration(i+1)*time.Second), stream.Int(int64(i))); err != nil {
			t.Fatal(err)
		}
		if err := e.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, e.LastLSN())
	}
	for i, lsn := range lsns {
		rows, err := e.Query(fmt.Sprintf(`SELECT k FROM ti AS OF LSN %d`, lsn))
		if i < 2 && err == nil {
			t.Errorf("lsn %d should have been released (retain 2)", lsn)
		}
		if i >= 2 && (err != nil || len(rows) != i+1) {
			t.Errorf("lsn %d should be retained with %d rows: %d rows, %v", lsn, i+1, len(rows), err)
		}
	}
}
