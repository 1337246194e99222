package esl

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/stream"
)

// Access the compiled event op for white-box planner assertions.
func eventOpOf(t *testing.T, e *Engine, sql string) (*eventOp, *[]Row) {
	t.Helper()
	rows := &[]Row{}
	q, err := e.RegisterQuery("t", sql, func(r Row) { *rows = append(*rows, r) })
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	switch op := q.op.(type) {
	case *eventOp:
		return op, rows
	case *memberOp:
		// Merged SEQ queries wrap the compiled event op; the planner
		// artifacts under test live on the wrapped op unchanged.
		return op.ev, rows
	}
	t.Fatalf("expected eventOp, got %T", q.op)
	return nil, nil
}

func TestPlannerPartitionDetection(t *testing.T) {
	e := New()
	declareQC(t, e)
	op, _ := eventOpOf(t, e, `
		SELECT C1.tagid FROM C1, C2, C3, C4
		WHERE SEQ(C1, C2, C3, C4)
		AND C1.tagid=C2.tagid AND C1.tagid=C3.tagid AND C1.tagid=C4.tagid`)
	if !op.def.Partitioned() {
		t.Fatal("full equality chain should partition")
	}
	if op.def.Pred != nil {
		t.Fatal("all equality conjuncts should be absorbed into keys")
	}
}

func TestPlannerPartialEqualityFallsBackToPred(t *testing.T) {
	e := New()
	declareQC(t, e)
	// Only C1=C2 equality: cannot partition a 3-step pattern; the
	// condition must become a bind-time predicate instead.
	op, rows := eventOpOf(t, e, `
		SELECT C1.tagid FROM C1, C2, C3
		WHERE SEQ(C1, C2, C3) AND C1.tagid = C2.tagid`)
	if op.def.Partitioned() {
		t.Fatal("partial equality must not partition")
	}
	if op.def.Pred == nil {
		t.Fatal("equality should become a residual predicate")
	}
	pushQC(t, e, "C1", 1*time.Second, "a")
	pushQC(t, e, "C2", 2*time.Second, "b") // tag mismatch: cannot bind
	pushQC(t, e, "C2", 3*time.Second, "a")
	pushQC(t, e, "C3", 4*time.Second, "z") // C3 unconstrained
	if len(*rows) != 1 || (*rows)[0].Get("tagid").String() != "a" {
		t.Fatalf("rows = %v", *rows)
	}
}

func TestPlannerSingleAliasFilterPushdown(t *testing.T) {
	e := New()
	declareQC(t, e)
	op, rows := eventOpOf(t, e, `
		SELECT C1.tagid FROM C1, C2
		WHERE SEQ(C1, C2) AND C1.readerid = 'C1' AND C2.tagid LIKE 'keep%'`)
	if op.def.Steps[0].Filter == nil || op.def.Steps[1].Filter == nil {
		t.Fatal("single-alias conjuncts should push down to step filters")
	}
	if op.def.Pred != nil {
		t.Fatal("no residual predicates expected")
	}
	pushQC(t, e, "C1", 1*time.Second, "x")
	pushQC(t, e, "C2", 2*time.Second, "drop-me")
	pushQC(t, e, "C2", 3*time.Second, "keep-me")
	if len(*rows) != 1 {
		t.Fatalf("rows = %v", *rows)
	}
}

func TestPlannerMaxGapExtraction(t *testing.T) {
	e := New()
	declareContainment(t, e)
	op, _ := eventOpOf(t, e, `
		SELECT COUNT(R1*) FROM R1, R2
		WHERE SEQ(R1*, R2) MODE CHRONICLE
		AND R1.tagtime - R1.previous.tagtime <= 1 SECONDS`)
	if op.def.Steps[0].MaxGap != time.Second {
		t.Fatalf("MaxGap = %v, want 1s", op.def.Steps[0].MaxGap)
	}
	// Strict < shaves a nanosecond.
	e2 := New()
	declareContainment(t, e2)
	op2, _ := eventOpOf(t, e2, `
		SELECT COUNT(R1*) FROM R1, R2
		WHERE SEQ(R1*, R2) MODE CHRONICLE
		AND R1.tagtime - R1.previous.tagtime < 1 SECONDS`)
	if op2.def.Steps[0].MaxGap != time.Second-time.Nanosecond {
		t.Fatalf("strict MaxGap = %v", op2.def.Steps[0].MaxGap)
	}
}

func TestPlannerExpireAfterClause(t *testing.T) {
	e := New()
	declareContainment(t, e)
	op, _ := eventOpOf(t, e, `
		SELECT COUNT(R1*) FROM R1, R2
		WHERE SEQ(R1*, R2) MODE CHRONICLE EXPIRE AFTER 10 SECONDS`)
	if op.def.ExpireAfter != 10*time.Second {
		t.Fatalf("ExpireAfter = %v", op.def.ExpireAfter)
	}
	pushQC(t, e, "R1", 1*time.Second, "p")
	if op.seq.StateSize() != 1 {
		t.Fatalf("state = %d", op.seq.StateSize())
	}
	if err := e.Heartbeat(ts(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if op.seq.StateSize() != 0 {
		t.Fatalf("idle run not expired: %d", op.seq.StateSize())
	}
}

func TestPlannerWindowAnchors(t *testing.T) {
	e := New()
	declareClinic(t, e)
	// Mid-sequence FOLLOWING anchor (the paper's A2 example).
	op, _ := eventOpOf(t, e, `
		SELECT A1.tagid FROM A1, A2, A3
		WHERE EXCEPTION_SEQ(A1, A2, A3) OVER [1 HOURS FOLLOWING A2]`)
	w := op.def.Window
	if w == nil || !w.Following || w.Step != 1 || w.Span != time.Hour {
		t.Fatalf("window = %+v", w)
	}
	// Default anchors: PRECEDING -> last step; FOLLOWING -> first.
	e2 := New()
	declareClinic(t, e2)
	op2, _ := eventOpOf(t, e2, `
		SELECT A1.tagid FROM A1, A2, A3
		WHERE SEQ(A1, A2, A3) OVER [5 MINUTES PRECEDING CURRENT]`)
	if op2.def.Window.Step != 2 || op2.def.Window.Following {
		t.Fatalf("default PRECEDING anchor = %+v", op2.def.Window)
	}
}

func TestPlannerCLevelFlippedComparison(t *testing.T) {
	e := New()
	declareClinic(t, e)
	// Constant on the left: 3 > CLEVEL_SEQ(...) === CLEVEL < 3.
	_, rows := eventOpOf(t, e, `
		SELECT A1.tagid FROM A1, A2, A3
		WHERE 3 > (CLEVEL_SEQ(A1, A2, A3) OVER [1 HOURS FOLLOWING A1])`)
	pushQC(t, e, "A2", 1*time.Minute, "s") // bad start, level 0 < 3
	if len(*rows) != 1 {
		t.Fatalf("rows = %v", *rows)
	}
	// Level-specific filter: only completion level exactly 1.
	e2 := New()
	declareClinic(t, e2)
	_, rows2 := eventOpOf(t, e2, `
		SELECT exception.level FROM A1, A2, A3
		WHERE (CLEVEL_SEQ(A1, A2, A3) OVER [1 HOURS FOLLOWING A1]) = 1`)
	pushQC(t, e2, "A2", 1*time.Minute, "s") // level 0: filtered out
	pushQC(t, e2, "A1", 2*time.Minute, "s")
	pushQC(t, e2, "A3", 3*time.Minute, "s") // breaks partial (A) at level 1
	if len(*rows2) != 1 {
		t.Fatalf("rows2 = %v", *rows2)
	}
	if lv, _ := (*rows2)[0].Get("level").AsInt(); lv != 1 {
		t.Fatalf("level = %v", (*rows2)[0])
	}
}

func TestPlannerRejectsBadEventQueries(t *testing.T) {
	e := New()
	declareQC(t, e)
	declareContainment(t, e)
	bad := []string{
		// Two star steps projected individually.
		`SELECT R1.tagid, X.tagid FROM R1, R2 AS X WHERE SEQ(R1*, X*)`,
		// Window with PRECEDING AND FOLLOWING on SEQ.
		`SELECT C1.tagid FROM C1, C2 WHERE SEQ(C1, C2) OVER [1 MINUTES PRECEDING AND FOLLOWING C2]`,
		// Anchor not an argument.
		`SELECT C1.tagid FROM C1, C2 WHERE SEQ(C1, C2) OVER [1 MINUTES PRECEDING C9]`,
		// Alias repeated in SEQ.
		`SELECT C1.tagid FROM C1, C2 WHERE SEQ(C1, C1)`,
		// Two SEQ operators.
		`SELECT C1.tagid FROM C1, C2, C3 WHERE SEQ(C1, C2) AND SEQ(C2, C3)`,
		// Star aggregate over a non-star argument.
		`SELECT COUNT(C1*) FROM C1, C2 WHERE SEQ(C1, C2)`,
		// Unknown exception pseudo-column.
		`SELECT exception.bogus FROM C1, C2 WHERE EXCEPTION_SEQ(C1, C2)`,
		// EXCEPTION_SEQ with star steps.
		`SELECT R2.tagid FROM R1, R2 WHERE EXCEPTION_SEQ(R1*, R2)`,
		// Ambiguous unqualified column across arguments.
		`SELECT C1.tagid FROM C1, C2 WHERE SEQ(C1, C2) AND tagid = 'x'`,
	}
	for _, sql := range bad {
		if _, err := e.RegisterQuery("x", sql, nil); err == nil {
			t.Errorf("should reject: %s", sql)
		}
	}
}

func TestSelfJoinAliasesOnOneStream(t *testing.T) {
	// Footnote 1: "the streams in the argument list of the operator may in
	// fact be the same data stream with different aliases."
	e := New()
	mustExec(t, e, `CREATE STREAM moves(readerid, tagid, tagtime);`)
	_, rows := eventOpOf(t, e, `
		SELECT a.tagtime, b.tagtime FROM moves AS a, moves AS b
		WHERE SEQ(a, b) MODE CONSECUTIVE AND a.tagid = b.tagid`)
	mustPush(t, e, "moves", 1*time.Second, stream.Str("r"), stream.Str("x"), stream.Null)
	mustPush(t, e, "moves", 2*time.Second, stream.Str("r"), stream.Str("x"), stream.Null)
	mustPush(t, e, "moves", 3*time.Second, stream.Str("r"), stream.Str("x"), stream.Null)
	// Consecutive pairs: (1,2) then (3,_) pending: the third tuple starts a
	// new sequence after the completed one.
	if len(*rows) != 1 {
		t.Fatalf("rows = %v", *rows)
	}
}

func TestEventQueryWindowEvictionViaHeartbeat(t *testing.T) {
	e := New()
	declareQC(t, e)
	op, _ := eventOpOf(t, e, `
		SELECT C1.tagid FROM C1, C2
		WHERE SEQ(C1, C2) OVER [10 SECONDS PRECEDING C2]`)
	for i := 0; i < 50; i++ {
		pushQC(t, e, "C1", time.Duration(i)*time.Second, "x")
	}
	if err := e.Heartbeat(ts(5 * time.Minute)); err != nil {
		t.Fatal(err)
	}
	if op.seq.StateSize() != 0 {
		t.Fatalf("heartbeat did not evict: %d", op.seq.StateSize())
	}
}

func TestExceptionQueryConsecutiveDefault(t *testing.T) {
	e := New()
	declareClinic(t, e)
	op, _ := eventOpOf(t, e, `
		SELECT A1.tagid FROM A1, A2, A3 WHERE EXCEPTION_SEQ(A1, A2, A3)`)
	// The matcher must run the exception automaton: an A2 arriving with no
	// active sequence is a bad start, where a SEQ matcher raises nothing.
	schema, _ := e.StreamSchema("A2")
	a2 := stream.MustTuple(schema, ts(time.Second), stream.Str("A2"), stream.Str("staff"), stream.Null)
	if _, err := op.seq.Push(a2, "A2"); err != nil {
		t.Fatal(err)
	}
	if exs := op.seq.TakeExceptions(); len(exs) != 1 || exs[0].Reason != core.BreakBadStart {
		t.Fatalf("exceptions = %v, want one BAD_START from the exception matcher", exs)
	}
	if op.seq.Def().Mode != core.ModeConsecutive {
		t.Fatalf("default mode = %v, want CONSECUTIVE per §3.1.3", op.seq.Def().Mode)
	}
}

func TestEventQueryProjectionWithArithmetic(t *testing.T) {
	e := New()
	declareContainment(t, e)
	_, rows := eventOpOf(t, e, `
		SELECT R2.tagtime - FIRST(R1*).tagtime AS span, COUNT(R1*) * 2 AS double_count
		FROM R1, R2 WHERE SEQ(R1*, R2) MODE CHRONICLE`)
	pushQC(t, e, "R1", 1*time.Second, "p1")
	pushQC(t, e, "R1", 2*time.Second, "p2")
	pushQC(t, e, "R2", 5*time.Second, "case")
	if len(*rows) != 1 {
		t.Fatalf("rows = %v", *rows)
	}
	r := (*rows)[0]
	if n, _ := r.Get("span").AsInt(); n != int64(4*time.Second) {
		t.Errorf("span = %v", r.Get("span"))
	}
	if n, _ := r.Get("double_count").AsInt(); n != 4 {
		t.Errorf("double_count = %v", r.Get("double_count"))
	}
}

// A SEQ-family match projects straight to one row, so the row clauses that
// need an output stage are refused at registration, naming the clause,
// rather than ignored (DISTINCT and LIMIT used to emit every match, and a
// plain aggregate failed on every push).
func TestEventQueryRejectsRowClauses(t *testing.T) {
	for _, tc := range []struct{ clause, sql string }{
		{"DISTINCT", `SELECT DISTINCT R2.tagid FROM R1, R2 WHERE SEQ(R1, R2) MODE UNRESTRICTED`},
		{"LIMIT", `SELECT R2.tagid FROM R1, R2 WHERE SEQ(R1, R2) MODE UNRESTRICTED LIMIT 1`},
		{"GROUP BY", `SELECT R2.tagid FROM R1, R2 WHERE SEQ(R1, R2) MODE UNRESTRICTED GROUP BY R2.tagid`},
		{"HAVING", `SELECT R2.tagid FROM R1, R2 WHERE SEQ(R1, R2) HAVING R2.tagid = 'zz'`},
		{"aggregate COUNT", `SELECT R2.tagid, count(*) FROM R1, R2 WHERE SEQ(R1, R2)`},
	} {
		t.Run(tc.clause, func(t *testing.T) {
			e := New()
			declareContainment(t, e)
			_, err := e.RegisterQuery("x", tc.sql, nil)
			if err == nil || !strings.Contains(err.Error(), tc.clause) {
				t.Fatalf("register %s: err = %v, want a rejection naming %s", tc.sql, err, tc.clause)
			}
		})
	}
}
