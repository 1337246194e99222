package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/snapshot"
	"repro/internal/stream"
)

// The paper's OVER [.. FOLLOWING C1] form bounds SEQ history exactly as its
// PRECEDING twin does: 10,000 unmatched C1 tuples 10 ms apart under a 1 s
// window leave the 101 inside the last second.
func TestFollowingWindowEvictsHistory(t *testing.T) {
	retained := func(mode Mode, following bool) int {
		def := seqDef(mode, "C1", "C2")
		def.Window = &WindowAnchor{Span: time.Second, Step: 1}
		if following {
			def.Window = &WindowAnchor{Span: time.Second, Step: 0, Following: true}
		}
		m := MustMatcher(def)
		for i := 0; i < 10000; i++ {
			tu := mk("C1", time.Duration(i)*10*time.Millisecond, "x")
			feed(t, m, tu)
			m.Advance(tu.TS)
		}
		return m.StateSize()
	}
	for _, mode := range []Mode{ModeChronicle, ModeUnrestricted} {
		pre, fol := retained(mode, false), retained(mode, true)
		if pre != 101 || fol > pre {
			t.Errorf("%s: FOLLOWING retains %d tuples, PRECEDING %d; want both 101", mode, fol, pre)
		}
	}
}

// A star anchor's FOLLOWING window is measured from its last tuple: the
// group's first tuple falling below now - span does not end the run.
func TestFollowingWindowStarAnchorMeasuredFromLast(t *testing.T) {
	def := Def{
		Steps:  []Step{{Alias: "R1", Star: true}, {Alias: "R2"}},
		Mode:   ModeUnrestricted,
		Window: &WindowAnchor{Span: 5 * time.Second, Step: 0, Following: true},
	}
	m := MustMatcher(def)
	feed(t, m, mk("R1", 1*time.Second, "p"), mk("R1", 4*time.Second, "p"))
	m.Advance(stream.TS(8 * time.Second))
	wantSigs(t, feed(t, m, mk("R2", 9*time.Second, "p")), "t1,t4,t9")
}

// A run-engine body whose run ordinals descend within a bucket, or reach
// the next ordinal, is corrupt: place's binary insert and mergeVisit's
// CHRONICLE and RECENT visit orders rely on ordinals ascending in each
// bucket, and a fresh run must not repeat one.
func TestLoadRejectsRunOrdinals(t *testing.T) {
	def := seqDef(ModeChronicle, "C1", "C2")
	def.Steps[0].Star = true
	body := func(next uint64, ords ...uint64) *snapshot.Encoder {
		enc := snapshot.NewEncoder()
		enc.TS(0)
		enc.Bool(false) // unpartitioned
		enc.Uvarint(4)  // (step, open) buckets of a two-step pattern
		enc.Uvarint(0)
		enc.Uvarint(uint64(len(ords))) // open C1* groups
		for i, ord := range ords {
			at := time.Duration(i+1) * time.Second
			enc.Value(stream.Null)
			enc.Uvarint(2)
			enc.Uvarint(1)
			enc.Tuple(mk("C1", at, "x"))
			enc.Uvarint(0)
			enc.Int(0) // filling step 0
			enc.TS(stream.TS(at))
			enc.Uvarint(ord)
		}
		enc.Uvarint(0)
		enc.Uvarint(0)
		enc.Bool(false) // no CONSECUTIVE run
		enc.Int(len(ords))
		enc.Uvarint(next)
		enc.Uvarint(0) // no timers
		return enc
	}
	if err := MustMatcher(def).Load(reopen(t, body(4, 1, 3))); err != nil {
		t.Fatalf("ascending ordinals: Load = %v", err)
	}
	for name, enc := range map[string]*snapshot.Encoder{
		"descending":      body(4, 3, 1),
		"ordinal at next": body(4, 1, 4),
	} {
		if err := MustMatcher(def).Load(reopen(t, enc)); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("%s: Load = %v, want ErrCorrupt", name, err)
		}
	}
}

// A chain-history body whose timestamps decrease is corrupt: loaded as is,
// it would break the binary search eviction relies on.
func TestLoadRejectsReversedHistory(t *testing.T) {
	enc := snapshot.NewEncoder()
	enc.TS(0)
	enc.Bool(false) // unpartitioned
	enc.Uvarint(1)  // one history buffer, for C1
	enc.Uvarint(2)
	enc.Tuple(mk("C1", 2*time.Second, "x"))
	enc.Tuple(mk("C1", 1*time.Second, "x"))
	enc.Uvarint(0) // no RECENT chains
	enc.Uvarint(0) // no timers
	m := MustMatcher(seqDef(ModeUnrestricted, "C1", "C2"))
	if err := m.Load(reopen(t, enc)); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("Load = %v, want ErrCorrupt", err)
	}
}

// rawState counts the tuples the partitions hold as they stand, without
// StateSize's catch-up to the last Advance: the memory eviction left.
func rawState(m *Matcher) int {
	n := 0
	m.eachPartition(func(p *partition) { n += p.eng.stateSize() })
	return n
}

// Reclamation bounds memory on a stream of fresh keys: ten horizons of one
// C1 per key every 10 ms, advancing after each, leave exactly the partitions
// of the keys touched within the last horizon (1 s: 101 keys), and the
// tuples the partitions actually hold within twice that window's
// population — for chains and runs, window- and idle-bounded alike. An
// exception key also gets its C2, completing its sequence: its idle
// partition leaves within the same horizon.
func TestReclaimFreshKeys(t *testing.T) {
	preceding := &WindowAnchor{Span: time.Second, Step: 1}
	following := &WindowAnchor{Span: time.Second, Step: 0, Following: true}
	cases := []struct {
		name       string
		mode       Mode
		star       bool
		window     *WindowAnchor
		expire     time.Duration
		exceptions bool
	}{
		{"chronicle preceding", ModeChronicle, false, preceding, 0, false},
		{"unrestricted following", ModeUnrestricted, false, following, 0, false},
		{"consecutive preceding", ModeConsecutive, false, preceding, 0, false},
		{"star chronicle preceding", ModeChronicle, true, preceding, 0, false},
		{"recent preceding", ModeRecent, false, preceding, 0, false},
		{"unrestricted expire", ModeUnrestricted, false, nil, time.Second, false},
		{"recent expire", ModeRecent, false, nil, time.Second, false},
		{"star recent expire", ModeRecent, true, nil, time.Second, false},
		{"exception consecutive following", ModeConsecutive, false, following, 0, true},
		{"exception recent following", ModeRecent, false, following, 0, true},
	}
	for _, c := range cases {
		def := keyed(seqDef(c.mode, "C1", "C2"))
		def.Steps[0].Star = c.star
		def.Window, def.ExpireAfter = c.window, c.expire
		m := MustMatcher(def)
		if c.exceptions {
			var err error
			if m, err = NewExceptionSeqMatcher(def); err != nil {
				t.Fatal(err)
			}
		}
		const n = 1000 // 10 s at 10 ms
		completed := 0
		for i := 0; i < n; i++ {
			at := stream.TS(time.Duration(i) * 10 * time.Millisecond)
			streams := []string{"C1"}
			if c.exceptions {
				streams = append(streams, "C2")
			}
			for _, s := range streams {
				tu := stream.MustTuple(qcSchema[s], at, stream.Str(s), stream.Int(int64(i)), stream.Null)
				ms, err := m.Push(tu, s)
				if err != nil {
					t.Fatal(err)
				}
				completed += len(ms)
			}
			m.Advance(at)
		}
		if c.exceptions {
			if exs := m.TakeExceptions(); completed != n || len(exs) != 0 {
				t.Errorf("%s: %d of %d keys completed, %d exceptions", c.name, completed, n, len(exs))
			}
			if got := m.Partitions(); got > 101 {
				t.Errorf("%s: %d partitions, want at most the 101 keys of the last second", c.name, got)
			}
		} else if got := m.Partitions(); got != 101 {
			t.Errorf("%s: %d partitions, want the 101 keys of the last second", c.name, got)
		}
		if got := rawState(m); got > 2*101 {
			t.Errorf("%s: %d tuples held, want at most %d", c.name, got, 2*101)
		}
	}
}

// bruteWindow restates the window rule for a full binding (one tuple per
// step): PRECEDING at k puts every earlier tuple within span before the
// anchor; FOLLOWING at k puts every later tuple within span after it.
type bruteWindow struct {
	name      string
	steps     int
	anchor    int
	following bool
}

func (w bruteWindow) admits(b []*stream.Tuple, span time.Duration) bool {
	a := b[w.anchor].TS
	for i, t := range b {
		if w.following && i > w.anchor && t.TS > a.Add(span) ||
			!w.following && i < w.anchor && t.TS < a.Add(-span) {
			return false
		}
	}
	return true
}

// bruteUnrestricted enumerates every time-ordered binding of the trace to
// the steps by nested loops, keeping those the window admits, and returns
// their signatures (the Seq of each bound tuple).
func bruteUnrestricted(trace []*stream.Tuple, aliases []string, keyed bool, w bruteWindow, span time.Duration) []string {
	var out []string
	var walk func(b []*stream.Tuple, from int)
	walk = func(b []*stream.Tuple, from int) {
		if len(b) == len(aliases) {
			if w.admits(b, span) {
				out = append(out, seqSig(b))
			}
			return
		}
		for i := from; i < len(trace); i++ {
			t := trace[i]
			if t.Schema.Name() != aliases[len(b)] || keyed && len(b) > 0 && !t.Get(1).Equal(b[0].Get(1)) {
				continue
			}
			walk(append(b, t), i+1)
		}
	}
	walk(nil, 0)
	slices.Sort(out)
	return out
}

func seqSig(b []*stream.Tuple) string {
	s := ""
	for _, t := range b {
		s += fmt.Sprintf("%d,", t.Seq)
	}
	return s
}

// TestUnrestrictedMatchesBruteForce drives small random traces through an
// UNRESTRICTED matcher, advancing event time after every tuple (and, at
// random, to the next tuple's time before it arrives), and compares the
// match multiset with a nested-loop enumeration that shares no code with
// the matcher. Eviction that dropped a live tuple would lose matches.
func TestUnrestrictedMatchesBruteForce(t *testing.T) {
	windows := []bruteWindow{
		{"PRECEDING on the final step", 2, 1, false},
		{"PRECEDING on the final of three", 3, 2, false},
		{"PRECEDING on a middle step", 3, 1, false},
		{"FOLLOWING on step 0", 2, 0, true},
		{"FOLLOWING on step 0 of three", 3, 0, true},
		{"FOLLOWING on a middle step", 3, 1, true},
	}
	rng := rand.New(rand.NewSource(5))
	for _, w := range windows {
		for _, keyedRun := range []bool{false, true} {
			aliases := []string{"C1", "C2", "C3"}[:w.steps]
			for trial := 0; trial < 60; trial++ {
				span := time.Duration(1+rng.Intn(4)) * time.Second
				def := seqDef(ModeUnrestricted, aliases...)
				def.Window = &WindowAnchor{Span: span, Step: w.anchor, Following: w.following}
				if keyedRun {
					def = keyed(def)
				}
				m := MustMatcher(def)
				var trace []*stream.Tuple
				var got []string
				at := time.Duration(0)
				for i := 0; i < 30; i++ {
					at += time.Duration(rng.Intn(1500)) * time.Millisecond
					tu := mk(aliases[rng.Intn(len(aliases))], at, []string{"a", "b"}[rng.Intn(2)])
					trace = append(trace, tu)
					if rng.Intn(2) == 0 {
						m.Advance(tu.TS)
					}
					for _, match := range feed(t, m, tu) {
						var b []*stream.Tuple
						for _, g := range match.Groups {
							b = append(b, g...)
						}
						got = append(got, seqSig(b))
					}
					m.Advance(tu.TS)
				}
				slices.Sort(got)
				if want := bruteUnrestricted(trace, aliases, keyedRun, w, span); !slices.Equal(got, want) {
					t.Fatalf("%s (keyed=%v, span %s) trial %d:\n got %v\nwant %v", w.name, keyedRun, span, trial, got, want)
				}
			}
		}
	}
}

// BenchmarkAdvanceFreshKeys measures the fresh-keys shape of RFID traffic,
// where most tags are seen once: a keyed two-step CHRONICLE SEQ with a 1 s
// PRECEDING window on the last step, K partitions pre-filled by Push
// alone, then per op one fresh key's Push and an Advance to its time.
// Tuples are 10 ms apart, so about 101 stay live whatever K is. Op i
// reuses key i mod K, last seen K·10 ms earlier and far outside the
// window: its partition has been reclaimed by then, so after the first K
// ops the matcher holds about 101 partitions, and an op costs the same at
// any K.
func BenchmarkAdvanceFreshKeys(b *testing.B) {
	for _, k := range []int{5000, 10000, 20000, 40000} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			def := keyed(seqDef(ModeChronicle, "C1", "C2"))
			def.Window = &WindowAnchor{Span: time.Second, Step: 1}
			m := MustMatcher(def)
			tuple := func(i int) *stream.Tuple {
				return stream.MustTuple(qcSchema["C1"], stream.TS(time.Duration(i)*10*time.Millisecond),
					stream.Str("C1"), stream.Int(int64(i%k)), stream.Null)
			}
			for i := 0; i < k; i++ {
				if _, err := m.Push(tuple(i), "C1"); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := k; i < k+b.N; i++ {
				tu := tuple(i)
				if _, err := m.Push(tu, "C1"); err != nil {
					b.Fatal(err)
				}
				m.Advance(tu.TS)
			}
		})
	}
}
