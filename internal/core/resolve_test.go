package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/stream"
)

// Resolve caches by alias content: equal alias sets share one resolution,
// whatever slice carries them.
func TestResolveCachesByContent(t *testing.T) {
	m := MustMatcher(seqDef(ModeChronicle, "A1", "A2", "A3"))
	a := m.Resolve("A2", "A1")
	if b := m.Resolve([]string{"A2", "A1"}...); b != a {
		t.Fatal("equal alias sets resolved twice")
	}
	if c := m.Resolve("A1", "A2"); c == a || c.Steps() != 2 {
		t.Fatalf("alias order is part of the key: same=%v steps=%d", c == a, c.Steps())
	}
}

// Push resolves into scratch storage, so a push that binds nothing
// allocates nothing — on SEQ and exception matchers alike — and leaves
// Resolve's cache untouched.
func TestPushResolvesWithoutAllocating(t *testing.T) {
	seqM := MustMatcher(seqDef(ModeConsecutive, "A1", "A2", "A3"))
	exc := MustExceptionMatcher(clinicDef(ModeRecent))
	pushEx(t, exc, mk("A1", time.Second, "s"))
	a3 := mk("A3", 2*time.Second, "s") // binds nothing either way
	for name, push := range map[string]func(){
		"seq":       func() { _, _ = seqM.Push(a3, "A3", "ZZ") },
		"exception": func() { _, _, _ = exc.Push(a3, "A3") },
	} {
		push()
		if n := testing.AllocsPerRun(100, push); n != 0 {
			t.Errorf("%s: %v allocations per push", name, n)
		}
	}
	if n := len(seqM.resolved) + len(exc.m.resolved); n != 0 {
		t.Errorf("Push cached %d resolutions", n)
	}
}

// PushBatchAt on a partitioned exception matcher raises exceptions in
// arrival order, as tuple-by-tuple Push does — not grouped by partition.
func TestExceptionPushBatchArrivalOrder(t *testing.T) {
	def := clinicDef(ModeConsecutive)
	for i := range def.Steps {
		def.Steps[i].Key = func(tu *stream.Tuple) stream.Value { return tu.Field("tagid") }
	}
	run := []*stream.Tuple{mk("A2", 1*time.Second, "k1"), mk("A2", 2*time.Second, "k2"), mk("A2", 3*time.Second, "k1")}
	m, err := NewExceptionSeqMatcher(def)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.PushBatchAt(m.Resolve("A2"), run, nil); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, x := range m.TakeExceptions() {
		got = append(got, fmt.Sprintf("%s %s@%s", x.Reason, x.Trigger.Field("tagid"), x.TS))
	}
	want := []string{"BAD_START k1@1s", "BAD_START k2@2s", "BAD_START k1@3s"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("exceptions = %v, want %v", got, want)
	}
}
