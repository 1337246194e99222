package esl

// White-box tests for the multi-query plan-merging layer: tier assignment,
// the mid-stream registration fence, unregistration (including the leak
// regression), per-member panic isolation, the closure-compiled filter
// tiers, and the EXPLAIN / MergeReport surfaces.

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/stream"
)

// mergePrefixSQL builds the canonical shared-prefix family: every member
// watches DOCK arrivals on C1 and differs only in the C2 reader.
func mergePrefixSQL(final string) string {
	return fmt.Sprintf(`
		SELECT C1.tagid, C2.tagtime FROM C1, C2
		WHERE SEQ(C1, C2)
		AND C1.readerid = 'DOCK' AND C2.readerid = '%s'
		AND C1.tagid = C2.tagid`, final)
}

func TestMergePrefixTierGrouping(t *testing.T) {
	e := New()
	declareQC(t, e)
	var got []string
	for _, rid := range []string{"R1", "R2", "R3"} {
		rid := rid
		if _, err := e.RegisterQuery("q-"+rid, mergePrefixSQL(rid), func(r Row) {
			got = append(got, rid+":"+r.Vals[0].String())
		}); err != nil {
			t.Fatal(err)
		}
	}
	if len(e.groups) != 1 {
		t.Fatalf("groups = %d, want 1 shared group", len(e.groups))
	}
	g := e.groups[0]
	if g.tier != tierPrefix || len(g.members) != 3 {
		t.Fatalf("group = %s tier, %d members", g.tier, len(g.members))
	}
	rep := e.MergeReport()
	for _, want := range []string{"prefix tier", "3 member(s)", "q-R1", "q-R3"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("MergeReport missing %q:\n%s", want, rep)
		}
	}

	// One prefix match pays once; each member accepts only its own final.
	pushQC(t, e, "C1", 1*time.Second, "a") // readerid = "C1" — invisible
	mustPush(t, e, "C1", 2*time.Second, stream.Str("DOCK"), stream.Str("a"), stream.Null)
	mustPush(t, e, "C2", 3*time.Second, stream.Str("R2"), stream.Str("a"), stream.Null)
	mustPush(t, e, "C2", 4*time.Second, stream.Str("R1"), stream.Str("a"), stream.Null)
	mustPush(t, e, "C2", 5*time.Second, stream.Str("R9"), stream.Str("a"), stream.Null)
	if want := []string{"R2:a", "R1:a"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("emissions = %v, want %v", got, want)
	}
}

func TestMergeIdenticalTierVirginJoin(t *testing.T) {
	e := New()
	declareQC(t, e)
	sql := `SELECT C1.tagid FROM C1, C2
		WHERE SEQ(C1, C2) MODE CHRONICLE
		AND C1.readerid = 'DOCK' AND C1.tagid = C2.tagid`
	var n1, n2, n3 int
	mustRegister := func(name string, n *int) {
		t.Helper()
		if _, err := e.RegisterQuery(name, sql, func(Row) { *n++ }); err != nil {
			t.Fatal(err)
		}
	}
	mustRegister("a", &n1)
	mustRegister("b", &n2)
	if len(e.groups) != 1 || e.groups[0].tier != tierIdentical || len(e.groups[0].members) != 2 {
		t.Fatalf("groups = %+v", e.groups)
	}
	// Once a tuple has been delivered the group is no longer virgin: a
	// third identical query must found its own group (CHRONICLE state
	// cannot be inherited mid-stream).
	mustPush(t, e, "C1", 1*time.Second, stream.Str("DOCK"), stream.Str("a"), stream.Null)
	mustRegister("c", &n3)
	if len(e.groups) != 2 {
		t.Fatalf("groups after non-virgin join = %d, want 2", len(e.groups))
	}
	mustPush(t, e, "C2", 2*time.Second, stream.Str("R1"), stream.Str("a"), stream.Null)
	if n1 != 1 || n2 != 1 || n3 != 0 {
		t.Fatalf("emissions = %d/%d/%d, want 1/1/0 (late joiner missed the prefix)", n1, n2, n3)
	}
}

func TestMergeMidStreamJoinFence(t *testing.T) {
	e := New()
	declareQC(t, e)
	var got []string
	reg := func(rid string) {
		t.Helper()
		if _, err := e.RegisterQuery("q-"+rid, mergePrefixSQL(rid), func(r Row) {
			got = append(got, rid+":"+r.Vals[0].String())
		}); err != nil {
			t.Fatal(err)
		}
	}
	reg("R1")
	mustPush(t, e, "C1", 1*time.Second, stream.Str("DOCK"), stream.Str("a"), stream.Null)
	// R2 joins the live group mid-stream: it shares the automaton but must
	// not see matches built from tuples that predate its registration.
	reg("R2")
	if len(e.groups) != 1 || len(e.groups[0].members) != 2 {
		t.Fatalf("mid-stream joiner did not share the group: %+v", e.groups)
	}
	mustPush(t, e, "C2", 2*time.Second, stream.Str("R2"), stream.Str("a"), stream.Null)
	mustPush(t, e, "C2", 3*time.Second, stream.Str("R1"), stream.Str("a"), stream.Null)
	// A fresh prefix after the join is visible to both.
	mustPush(t, e, "C1", 4*time.Second, stream.Str("DOCK"), stream.Str("b"), stream.Null)
	mustPush(t, e, "C2", 5*time.Second, stream.Str("R2"), stream.Str("b"), stream.Null)
	want := []string{"R1:a", "R2:b"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("emissions = %v, want %v", got, want)
	}
}

// TestMergeUnregisterLeak is the leak regression: registering and
// unregistering sharing queries must leave no groups, readers, routes, or
// query handles behind.
func TestMergeUnregisterLeak(t *testing.T) {
	e := New()
	declareQC(t, e)
	var qs []*Query
	var emits [3]int
	for i, rid := range []string{"R1", "R2", "R3"} {
		i := i
		q, err := e.RegisterQuery("q-"+rid, mergePrefixSQL(rid), func(Row) { emits[i]++ })
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	// Removing the middle member keeps the group serving the others.
	if err := e.Unregister(qs[1]); err != nil {
		t.Fatal(err)
	}
	if len(e.groups) != 1 || len(e.groups[0].members) != 2 || e.groups[0].accept.Len() != 2 {
		t.Fatalf("after middle unregister: %d groups, %d members, %d acceptors",
			len(e.groups), len(e.groups[0].members), e.groups[0].accept.Len())
	}
	mustPush(t, e, "C1", 1*time.Second, stream.Str("DOCK"), stream.Str("a"), stream.Null)
	mustPush(t, e, "C2", 2*time.Second, stream.Str("R2"), stream.Str("a"), stream.Null)
	mustPush(t, e, "C2", 3*time.Second, stream.Str("R3"), stream.Str("a"), stream.Null)
	if emits != [3]int{0, 0, 1} {
		t.Fatalf("emissions after middle unregister = %v", emits)
	}
	// Double unregister errors.
	if err := e.Unregister(qs[1]); err == nil {
		t.Fatal("double unregister did not error")
	}
	if err := e.Unregister(qs[0]); err != nil {
		t.Fatal(err)
	}
	if err := e.Unregister(qs[2]); err != nil {
		t.Fatal(err)
	}
	if len(e.groups) != 0 || len(e.queries) != 0 {
		t.Fatalf("leak: %d groups, %d queries after full unregister", len(e.groups), len(e.queries))
	}
	for name, si := range e.streams {
		if len(si.readers) != 0 {
			t.Fatalf("leak: stream %s still has %d readers", name, len(si.readers))
		}
	}
	// The engine keeps working: a fresh registration founds a fresh group.
	if _, err := e.RegisterQuery("again", mergePrefixSQL("R1"), func(Row) {}); err != nil {
		t.Fatal(err)
	}
	if len(e.groups) != 1 || len(e.groups[0].members) != 1 {
		t.Fatalf("re-registration after teardown: %+v", e.groups)
	}
}

// TestMergePanicIsolationPerMember: a panicking sink quarantines only its
// own member; the group and the other members keep running.
func TestMergePanicIsolationPerMember(t *testing.T) {
	e := New()
	declareQC(t, e)
	sql := `SELECT C1.tagid FROM C1, C2
		WHERE SEQ(C1, C2)
		AND C1.readerid = 'DOCK' AND C1.tagid = C2.tagid`
	qbad, err := e.RegisterQuery("bad", sql, func(Row) { panic("sink exploded") })
	if err != nil {
		t.Fatal(err)
	}
	var good int
	if _, err := e.RegisterQuery("good", sql, func(Row) { good++ }); err != nil {
		t.Fatal(err)
	}
	if len(e.groups) != 1 || len(e.groups[0].members) != 2 {
		t.Fatalf("identical queries did not merge: %+v", e.groups)
	}
	var deadReasons []stream.DeadReason
	e.OnDeadLetter(func(dl stream.DeadLetter) { deadReasons = append(deadReasons, dl.Reason) })

	mustPush(t, e, "C1", 1*time.Second, stream.Str("DOCK"), stream.Str("a"), stream.Null)
	mustPush(t, e, "C2", 2*time.Second, stream.Str("R1"), stream.Str("a"), stream.Null)
	mustPush(t, e, "C1", 3*time.Second, stream.Str("DOCK"), stream.Str("b"), stream.Null)
	mustPush(t, e, "C2", 4*time.Second, stream.Str("R1"), stream.Str("b"), stream.Null)

	if quar, qerr := qbad.Quarantined(); !quar || qerr == nil {
		t.Fatalf("panicking member not quarantined: %v %v", quar, qerr)
	}
	if good != 2 {
		t.Fatalf("surviving member emitted %d rows, want 2", good)
	}
	if es := e.EngineStats(); es.QuarantinedQueries != 1 {
		t.Fatalf("QuarantinedQueries = %d, want 1", es.QuarantinedQueries)
	}
	if len(deadReasons) != 1 || deadReasons[0] != stream.DeadQueryPanic {
		t.Fatalf("dead letters = %v", deadReasons)
	}
}

// TestMergeSnapshotRoundTrip: checkpoint a merged group mid-match, restore
// into a fresh engine, and certify identical emissions afterwards —
// including the mid-stream join fence, which must survive the round trip.
func TestMergeSnapshotRoundTrip(t *testing.T) {
	build := func(got *[]string) *Engine {
		e := New()
		declareQC(t, e)
		for _, rid := range []string{"R1", "R2"} {
			rid := rid
			if _, err := e.RegisterQuery("q-"+rid, mergePrefixSQL(rid), func(r Row) {
				*got = append(*got, rid+":"+r.Vals[0].String())
			}); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	feedTail := func(e *Engine) {
		mustPush(t, e, "C2", 3*time.Second, stream.Str("R1"), stream.Str("a"), stream.Null)
		mustPush(t, e, "C1", 4*time.Second, stream.Str("DOCK"), stream.Str("b"), stream.Null)
		mustPush(t, e, "C2", 5*time.Second, stream.Str("R2"), stream.Str("b"), stream.Null)
	}

	var got1 []string
	e1 := build(&got1)
	// Mid-match state: one live prefix run bound to tag "a", plus a second
	// tuple so the arrival counter moves past the members' join fences.
	mustPush(t, e1, "C1", 1*time.Second, stream.Str("DOCK"), stream.Str("a"), stream.Null)
	mustPush(t, e1, "C2", 2*time.Second, stream.Str("R9"), stream.Str("a"), stream.Null)
	var buf bytes.Buffer
	if err := e1.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	feedTail(e1)

	var got2 []string
	e2 := build(&got2)
	if err := e2.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	feedTail(e2)

	if fmt.Sprint(got1) != fmt.Sprint(got2) {
		t.Fatalf("restored run diverged:\noriginal: %v\nrestored: %v", got1, got2)
	}
	if want := []string{"R1:a", "R2:b"}; fmt.Sprint(got1) != fmt.Sprint(want) {
		t.Fatalf("emissions = %v, want %v", got1, want)
	}
}

// TestMergeExplain: the plan-merging verdict and the step filter lines.
func TestMergeExplain(t *testing.T) {
	e := New()
	declareQC(t, e)
	out, err := e.Explain(mergePrefixSQL("R1"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"plan merging: eligible, prefix tier",
		"no compatible group live: would found a new one",
		"step C1 filter: (C1.readerid = 'DOCK')",
		"step C2 filter: (C2.readerid = 'R1')",
	} {
		if !contains(out, want) {
			t.Fatalf("EXPLAIN missing %q:\n%s", want, out)
		}
	}
	if _, err := e.RegisterQuery("peer", mergePrefixSQL("R1"), func(Row) {}); err != nil {
		t.Fatal(err)
	}
	out, err = e.Explain(mergePrefixSQL("R2"))
	if err != nil {
		t.Fatal(err)
	}
	if !contains(out, "would join group 0 sharing its automaton with: peer") {
		t.Fatalf("EXPLAIN missing sharing line:\n%s", out)
	}

	// A function call makes the predicates non-canonicalizable.
	out, err = e.Explain(`SELECT C1.tagid FROM C1, C2
		WHERE SEQ(C1, C2) AND extract_serial(C1.tagid) = 7`)
	if err != nil {
		t.Fatal(err)
	}
	if !contains(out, "plan merging: ineligible") {
		t.Fatalf("EXPLAIN missing ineligibility:\n%s", out)
	}

	// The escape hatch reports itself.
	e2 := New(WithoutPlanMerge())
	declareQC(t, e2)
	out, err = e2.Explain(mergePrefixSQL("R1"))
	if err != nil {
		t.Fatal(err)
	}
	if !contains(out, "plan merging: disabled (WithoutPlanMerge)") {
		t.Fatalf("EXPLAIN missing disabled line:\n%s", out)
	}
}

// TestMergeClosureTiers: the filter compiler's fused shapes, observed through
// the queries' behavior: step C1's filter accepts exactly the tuples on
// which the WHERE conjuncts are known TRUE.
func TestMergeClosureTiers(t *testing.T) {
	cases := []string{
		`C1.readerid = 'R1'`,
		`'R1' = C1.readerid`,
		`C1.readerid <> 'R1'`,
		`C1.tagtime > 5`,
		`C1.tagtime BETWEEN 1 AND 9`,
		`C1.tagtime IS NULL`,
		`C1.readerid = 'R1' AND C1.tagtime > 5`,
		`C1.readerid = C1.tagid`,
	}
	for _, where := range cases {
		t.Run(where, func(t *testing.T) {
			e := New()
			declareQC(t, e)
			op, _ := eventOpOf(t, e, fmt.Sprintf(
				`SELECT C2.tagid FROM C1, C2 WHERE SEQ(C1, C2) AND %s`, where))
			s, err := ParseOne("SELECT " + where + " FROM C1")
			if err != nil {
				t.Fatal(err)
			}
			cond := s.(*Select).Items[0].Expr
			sch, _ := e.StreamSchema("C1")
			for _, vals := range [][]stream.Value{
				{stream.Str("R1"), stream.Str("a"), stream.Int(7)},
				{stream.Str("R2"), stream.Str("R2"), stream.Int(3)},
				{stream.Str("R1"), stream.Str("R1"), stream.Null},
				{stream.Null, stream.Str("a"), stream.Float(9)},
				{stream.Int(1), stream.Str("a"), stream.Str("x")},
			} {
				tu := &stream.Tuple{Schema: sch, Vals: vals}
				v, err := compileRun(cond, bound{"C1", tu})
				b, isBool := v.AsBool()
				want := err == nil && !v.IsNull() && isBool && b
				if got := op.def.Steps[0].Filter(tu); got != want {
					t.Errorf("filter on %v = %v, want %v (%v, %v)", vals, got, want, v, err)
				}
			}
		})
	}

	// A NULL literal comparison is never true: compiled as constant-false,
	// the query must stay silent (matching three-valued interpretation).
	e := New()
	declareQC(t, e)
	var n int
	if _, err := e.RegisterQuery("nul", `SELECT C2.tagid FROM C1, C2
		WHERE SEQ(C1, C2) AND C1.readerid = NULL`, func(Row) { n++ }); err != nil {
		t.Fatal(err)
	}
	pushQC(t, e, "C1", 1*time.Second, "a")
	pushQC(t, e, "C2", 2*time.Second, "a")
	if n != 0 {
		t.Fatalf("NULL-literal filter emitted %d rows", n)
	}
}

// TestMergeStatsConsistency: per-query routed/skipped attribution over a
// genuinely shared group still sums to the engine-wide counters.
func TestMergeStatsConsistency(t *testing.T) {
	e := New()
	declareQC(t, e)
	for _, rid := range []string{"R1", "R2", "R3", "R4"} {
		if _, err := e.RegisterQuery("q-"+rid, mergePrefixSQL(rid), func(Row) {}); err != nil {
			t.Fatal(err)
		}
	}
	if len(e.groups) != 1 || len(e.groups[0].members) != 4 {
		t.Fatalf("expected one group of 4, got %+v", e.groups)
	}
	for i := 0; i < 20; i++ {
		rid := fmt.Sprintf("R%d", i%8)
		if i%3 == 0 {
			rid = "DOCK"
		}
		stn := []string{"C1", "C2"}[i%2]
		mustPush(t, e, stn, time.Duration(i+1)*time.Second,
			stream.Str(rid), stream.Str(fmt.Sprintf("t%d", i%3)), stream.Null)
	}
	es := e.EngineStats()
	var routed, skipped uint64
	for _, qs := range e.Stats() {
		routed += qs.Routed
		skipped += qs.Skipped
	}
	if routed != es.RoutedDeliveries || skipped != es.SkippedDeliveries {
		t.Fatalf("per-query stats disagree with engine stats: %d/%d vs %d/%d",
			routed, skipped, es.RoutedDeliveries, es.SkippedDeliveries)
	}
	if es.SkippedDeliveries == 0 {
		t.Fatalf("union guard skipped nothing: %+v", es)
	}
}
