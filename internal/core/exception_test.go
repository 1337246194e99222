package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/stream"
)

// clinicDef is Example 5: EXCEPTION_SEQ(A1, A2, A3) OVER [1 HOURS FOLLOWING A1].
func clinicDef(mode Mode) Def {
	return Def{
		Steps:  []Step{{Alias: "A1"}, {Alias: "A2"}, {Alias: "A3"}},
		Mode:   mode,
		Window: &WindowAnchor{Span: time.Hour, Step: 0, Following: true},
	}
}

func pushEx(t *testing.T, m *ExceptionMatcher, tu *stream.Tuple) ([]*Match, []*Exception) {
	t.Helper()
	ms, exs, err := m.Push(tu, tu.Schema.Name())
	if err != nil {
		t.Fatal(err)
	}
	return ms, exs
}

func TestClinicNormalWorkflowNoExceptions(t *testing.T) {
	m := MustExceptionMatcher(clinicDef(ModeConsecutive))
	var matches []*Match
	var exs []*Exception
	// (A, B, C, A, B, C, A, B, C) — the paper's normal history.
	for round := 0; round < 3; round++ {
		base := time.Duration(round) * 10 * time.Minute
		for i, s := range []string{"A1", "A2", "A3"} {
			ms, xs := pushEx(t, m, mk(s, base+time.Duration(i)*time.Minute, "staff"))
			matches = append(matches, ms...)
			exs = append(exs, xs...)
		}
	}
	if len(matches) != 3 {
		t.Errorf("completions = %d, want 3", len(matches))
	}
	if len(exs) != 0 {
		t.Errorf("unexpected exceptions: %v", exs)
	}
}

// Scenario i: wrong incoming tuple (C directly follows A).
func TestExceptionWrongOrder(t *testing.T) {
	m := MustExceptionMatcher(clinicDef(ModeConsecutive))
	pushEx(t, m, mk("A1", 1*time.Minute, "s"))
	_, exs := pushEx(t, m, mk("A3", 2*time.Minute, "s")) // C directly follows A
	if len(exs) != 2 {
		t.Fatalf("exceptions = %v", exs)
	}
	// The partial (A1) breaks at level 1...
	if exs[0].Reason != BreakWrongTuple || exs[0].Level != 1 {
		t.Errorf("first exception = %v", exs[0])
	}
	if exs[0].Partial == nil || exs[0].Partial.Count(0) != 1 {
		t.Errorf("partial not carried: %v", exs[0])
	}
	// ...and the C itself cannot start a sequence (level 0).
	if exs[1].Reason != BreakBadStart || exs[1].Level != 0 {
		t.Errorf("second exception = %v", exs[1])
	}
}

// Scenario ii: wrong initial event (first event is B).
func TestExceptionBadStart(t *testing.T) {
	m := MustExceptionMatcher(clinicDef(ModeConsecutive))
	_, exs := pushEx(t, m, mk("A2", 1*time.Minute, "s"))
	if len(exs) != 1 || exs[0].Reason != BreakBadStart || exs[0].Level != 0 {
		t.Fatalf("exceptions = %v", exs)
	}
	if exs[0].Trigger == nil {
		t.Error("bad start should carry the trigger")
	}
}

// The paper's §3.1.3 scenario: after a completed (A,B,C), "the next tuple
// is C, the incoming tuple can not start a new sequence, an exception
// event occurs."
func TestExceptionAfterCompletion(t *testing.T) {
	m := MustExceptionMatcher(clinicDef(ModeConsecutive))
	pushEx(t, m, mk("A1", 1*time.Minute, "s"))
	pushEx(t, m, mk("A2", 2*time.Minute, "s"))
	ms, exs := pushEx(t, m, mk("A3", 3*time.Minute, "s"))
	if len(ms) != 1 || len(exs) != 0 {
		t.Fatalf("completion wrong: %d matches, %v", len(ms), exs)
	}
	_, exs = pushEx(t, m, mk("A3", 4*time.Minute, "s"))
	if len(exs) != 1 || exs[0].Reason != BreakBadStart || exs[0].Level != 0 {
		t.Fatalf("exceptions = %v", exs)
	}
}

// Scenario iii: active expiration — the window passes without completion
// and no tuple arrives; the heartbeat surfaces the exception.
func TestExceptionActiveExpiration(t *testing.T) {
	m := MustExceptionMatcher(clinicDef(ModeConsecutive))
	pushEx(t, m, mk("A1", 0, "s"))
	pushEx(t, m, mk("A2", 10*time.Minute, "s"))
	if exs := m.Advance(stream.TS(30 * time.Minute)); len(exs) != 0 {
		t.Fatalf("window not yet expired: %v", exs)
	}
	exs := m.Advance(stream.TS(2 * time.Hour))
	if len(exs) != 1 {
		t.Fatalf("exceptions = %v", exs)
	}
	x := exs[0]
	if x.Reason != BreakWindowExpired || x.Level != 2 {
		t.Errorf("exception = %v", x)
	}
	if x.TS != stream.TS(time.Hour) {
		t.Errorf("expiry at %v, want the window deadline 1h0m0s", x.TS)
	}
	if x.Trigger != nil {
		t.Error("expiration has no trigger tuple")
	}
	// State reset: a fresh sequence may start.
	if m.StateSize() != 0 {
		t.Errorf("state = %d", m.StateSize())
	}
	// No duplicate firing.
	if exs := m.Advance(stream.TS(3 * time.Hour)); len(exs) != 0 {
		t.Errorf("duplicate expiration: %v", exs)
	}
}

// A completed sequence must cancel its expiration timer.
func TestCompletionCancelsTimer(t *testing.T) {
	m := MustExceptionMatcher(clinicDef(ModeConsecutive))
	pushEx(t, m, mk("A1", 0, "s"))
	pushEx(t, m, mk("A2", 1*time.Minute, "s"))
	pushEx(t, m, mk("A3", 2*time.Minute, "s"))
	if exs := m.Advance(stream.TS(5 * time.Hour)); len(exs) != 0 {
		t.Fatalf("timer fired after completion: %v", exs)
	}
}

// Tuples arriving after the window deadline but before any heartbeat must
// not extend the expired sequence... they surface the expiration lazily via
// Advance; here we check binding respects the window bound itself.
func TestWindowRejectsLateBinding(t *testing.T) {
	m := MustExceptionMatcher(clinicDef(ModeConsecutive))
	pushEx(t, m, mk("A1", 0, "s"))
	_, exs := pushEx(t, m, mk("A2", 2*time.Hour, "s")) // outside [0, 1h]
	// The late A2 is a wrong tuple for the partial (window violated), and
	// cannot start a sequence.
	if len(exs) != 2 || exs[0].Reason != BreakWrongTuple || exs[1].Reason != BreakBadStart {
		t.Fatalf("exceptions = %v", exs)
	}
}

// The paper's RECENT flavor: (A,B) then another B replaces the binding.
func TestExceptionRecentReplacement(t *testing.T) {
	m := MustExceptionMatcher(clinicDef(ModeRecent))
	pushEx(t, m, mk("A1", 1*time.Minute, "s"))
	pushEx(t, m, mk("A2", 2*time.Minute, "s"))
	_, exs := pushEx(t, m, mk("A2", 3*time.Minute, "s"))
	if len(exs) != 1 || exs[0].Reason != BreakWrongTuple || exs[0].Level != 2 {
		t.Fatalf("exceptions = %v", exs)
	}
	// The replacement B is now bound: a C completes (A, B', C).
	ms, exs := pushEx(t, m, mk("A3", 4*time.Minute, "s"))
	if len(ms) != 1 || len(exs) != 0 {
		t.Fatalf("completion after replacement: %d matches, %v", len(ms), exs)
	}
	if ms[0].Last(1).TS != stream.TS(3*time.Minute) {
		t.Errorf("completion should use the replacement B: %s", sig(ms[0]))
	}
}

// RECENT ignores not-yet-applicable tuples instead of breaking.
func TestExceptionRecentIgnoresFutureStep(t *testing.T) {
	m := MustExceptionMatcher(clinicDef(ModeRecent))
	pushEx(t, m, mk("A1", 1*time.Minute, "s"))
	_, exs := pushEx(t, m, mk("A3", 2*time.Minute, "s")) // C after A: ignored under RECENT
	if len(exs) != 0 {
		t.Fatalf("exceptions = %v", exs)
	}
	pushEx(t, m, mk("A2", 3*time.Minute, "s"))
	ms, _ := pushEx(t, m, mk("A3", 4*time.Minute, "s"))
	if len(ms) != 1 {
		t.Fatalf("completion lost")
	}
}

// CLEVEL_SEQ: the completion level is queryable between arrivals.
func TestCompletionLevel(t *testing.T) {
	m := MustExceptionMatcher(clinicDef(ModeConsecutive))
	if lv := m.CompletionLevel(stream.Null); lv != 0 {
		t.Errorf("initial level = %d", lv)
	}
	pushEx(t, m, mk("A1", 1*time.Minute, "s"))
	if lv := m.CompletionLevel(stream.Null); lv != 1 {
		t.Errorf("level after A = %d", lv)
	}
	pushEx(t, m, mk("A2", 2*time.Minute, "s"))
	if lv := m.CompletionLevel(stream.Null); lv != 2 {
		t.Errorf("level after B = %d", lv)
	}
	pushEx(t, m, mk("A3", 3*time.Minute, "s"))
	if lv := m.CompletionLevel(stream.Null); lv != 0 {
		t.Errorf("level after completion = %d", lv)
	}
}

// Per-staff partitioning: violations are tracked per key.
func TestExceptionPartitioned(t *testing.T) {
	def := clinicDef(ModeConsecutive)
	for i := range def.Steps {
		def.Steps[i].Key = func(tu *stream.Tuple) stream.Value { return tu.Field("tagid") }
	}
	m := MustExceptionMatcher(def)
	pushEx(t, m, mk("A1", 1*time.Minute, "alice"))
	pushEx(t, m, mk("A1", 2*time.Minute, "bob"))
	// Alice proceeds correctly; Bob skips to C.
	_, exsA := pushEx(t, m, mk("A2", 3*time.Minute, "alice"))
	_, exsB := pushEx(t, m, mk("A3", 4*time.Minute, "bob"))
	if len(exsA) != 0 {
		t.Errorf("alice should be clean: %v", exsA)
	}
	if len(exsB) != 2 {
		t.Errorf("bob should violate: %v", exsB)
	}
	if lv := m.CompletionLevel(stream.Str("alice")); lv != 2 {
		t.Errorf("alice level = %d", lv)
	}
	if lv := m.CompletionLevel(stream.Str("bob")); lv != 0 {
		t.Errorf("bob level = %d", lv)
	}
	if lv := m.CompletionLevel(stream.Str("carol")); lv != 0 {
		t.Errorf("unknown key level = %d", lv)
	}
}

// Expiries across partitions fire in deadline order, same-instant ones in
// arming order, once each and never for a completed run; past the window
// the idle partitions leave the matcher. Random starts (ties included) are
// checked against the armed deadlines, stably sorted.
func TestExpiryQueueOrder(t *testing.T) {
	def := clinicDef(ModeConsecutive)
	for i := range def.Steps {
		def.Steps[i].Key = func(tu *stream.Tuple) stream.Value { return tu.Field("tagid") }
	}
	type expiry struct {
		key string
		at  stream.Timestamp
	}
	fired := func(exs []*Exception) []expiry {
		var out []expiry
		for _, x := range exs {
			if x.Reason != BreakWindowExpired || x.Level != 1 {
				t.Fatalf("exception %v, want a level-1 expiry", x)
			}
			out = append(out, expiry{x.Partial.Key.String(), x.TS})
		}
		return out
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		m := MustExceptionMatcher(def)
		var want []expiry // in arming order
		var at time.Duration
		for k, n := 0, 1+rng.Intn(20); k < n; k++ {
			at += time.Duration(rng.Intn(3)) * time.Minute
			key := fmt.Sprintf("k%d", k)
			pushEx(t, m, mk("A1", at, key))
			if rng.Intn(4) == 0 {
				pushEx(t, m, mk("A2", at, key))
				pushEx(t, m, mk("A3", at, key))
				continue
			}
			want = append(want, expiry{stream.Str(key).String(), stream.TS(at + time.Hour)})
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		cut := stream.TS(at/2 + time.Hour)
		split := sort.Search(len(want), func(i int) bool { return want[i].at > cut })
		first := fired(m.Advance(cut))
		rest := fired(m.Advance(stream.TS(at + 3*time.Hour)))
		if fmt.Sprint(first) != fmt.Sprint(want[:split]) || fmt.Sprint(rest) != fmt.Sprint(want[split:]) {
			t.Fatalf("trial %d: fired %v by %s, then %v; want %v", trial, first, cut, rest, want)
		}
		if exs := m.Advance(stream.TS(at + 4*time.Hour)); len(exs) != 0 {
			t.Fatalf("trial %d: fired again: %v", trial, exs)
		}
		if n := m.m.Partitions(); n != 0 {
			t.Fatalf("trial %d: %d partitions left past every window", trial, n)
		}
	}
}

// Per-partition active expiration.
func TestExceptionPartitionedExpiry(t *testing.T) {
	def := clinicDef(ModeConsecutive)
	for i := range def.Steps {
		def.Steps[i].Key = func(tu *stream.Tuple) stream.Value { return tu.Field("tagid") }
	}
	m := MustExceptionMatcher(def)
	pushEx(t, m, mk("A1", 0, "alice"))
	pushEx(t, m, mk("A1", 30*time.Minute, "bob"))
	exs := m.Advance(stream.TS(80 * time.Minute)) // alice's 1h window passed; bob's has not
	if len(exs) != 1 || !exs[0].Partial.Key.Equal(stream.Str("alice")) {
		t.Fatalf("exceptions = %v", exs)
	}
	exs = m.Advance(stream.TS(3 * time.Hour))
	if len(exs) != 1 || !exs[0].Partial.Key.Equal(stream.Str("bob")) {
		t.Fatalf("exceptions = %v", exs)
	}
	if m.StateSize() != 0 {
		t.Errorf("state = %d", m.StateSize())
	}
}

func TestExceptionMatcherValidation(t *testing.T) {
	if _, err := NewExceptionMatcher(Def{}); err == nil {
		t.Error("empty def accepted")
	}
	if _, err := NewExceptionMatcher(Def{Steps: []Step{{Alias: "a", Star: true}}}); err == nil {
		t.Error("star step accepted")
	}
	if _, err := NewExceptionMatcher(Def{Steps: []Step{{Alias: "a"}, {Alias: "b"}}, Mode: ModeChronicle}); err == nil {
		t.Error("chronicle mode accepted")
	}
	m := MustExceptionMatcher(clinicDef(ModeConsecutive))
	if _, _, err := m.Push(mk("A1", time.Second, "s")); err == nil {
		t.Error("Push without aliases should error")
	}
	// Unknown alias: silently no-op.
	ms, exs, err := m.Push(mk("A1", time.Second, "s"), "ZZ")
	if err != nil || ms != nil || exs != nil {
		t.Error("unknown alias should be a no-op")
	}
}

func TestBreakReasonStrings(t *testing.T) {
	if BreakWrongTuple.String() != "WRONG_TUPLE" ||
		BreakBadStart.String() != "BAD_START" ||
		BreakWindowExpired.String() != "WINDOW_EXPIRED" {
		t.Error("reason names wrong")
	}
	x := &Exception{Level: 1, Reason: BreakWindowExpired, TS: stream.TS(time.Hour)}
	if x.String() == "" {
		t.Error("String should render")
	}
}
