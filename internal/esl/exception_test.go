package esl

import (
	"strings"
	"testing"
	"time"

	"repro/internal/stream"
)

// A self-sequence whose steps key on different columns: p keys on x, q on
// y. Each tuple is routed to one partition per step key, so (9,0) is a
// q-candidate in partition 0 (a bad start there) and a p-start in
// partition 9, which (1,9) then completes — as the SEQ form of the same
// query matches (9,9). Only key 1's sequence expires.
func TestExceptionSelfSequenceKeysPerStep(t *testing.T) {
	e := New()
	mustExec(t, e, `CREATE STREAM A(x, y, tagtime);`)
	rows := collect(t, e, `
		SELECT exception.level, exception.reason, p.x, q.y
		FROM A AS p, A AS q
		WHERE EXCEPTION_SEQ(p, q) OVER [1 MINUTES FOLLOWING p] AND p.x = q.y`)
	mustPush(t, e, "A", 1*time.Second, stream.Int(9), stream.Int(0), stream.Null)
	mustPush(t, e, "A", 2*time.Second, stream.Int(1), stream.Int(9), stream.Null)
	if err := e.Heartbeat(ts(5 * time.Minute)); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range *rows {
		got = append(got, r.String())
	}
	want := []string{
		"level=0, reason=BAD_START, x=9, y=NULL @1s",
		"level=1, reason=WINDOW_EXPIRED, x=1, y=NULL @1m2s",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("rows:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
