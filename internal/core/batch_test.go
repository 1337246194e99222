package core

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/stream"
)

// batchFeed drives a matcher through the batch path: consecutive
// same-stream tuples are grouped into runs of at most batch tuples and
// pushed via Resolve/PushBatchAt, mirroring the engine's dispatch.
func batchFeed(t *testing.T, m *Matcher, batch int, tuples []*stream.Tuple) []*Match {
	t.Helper()
	resolved := map[string]*Resolved{}
	var out []*Match
	i := 0
	for i < len(tuples) {
		name := tuples[i].Schema.Name()
		j := i + 1
		for j < len(tuples) && j-i < batch && tuples[j].Schema.Name() == name {
			j++
		}
		r := resolved[name]
		if r == nil {
			r = m.Resolve(name)
			resolved[name] = r
		}
		bms, err := m.PushBatchAt(r, tuples[i:j], nil)
		if err != nil {
			panic(err)
		}
		for _, bm := range bms {
			out = append(out, bm.Match)
		}
		i = j
	}
	return out
}

// trace generates a random keyed C1->C2->C3 workload with interleaved tags
// and occasional simultaneous timestamps.
func trace(rng *rand.Rand, n int) []*stream.Tuple {
	streams := []string{"C1", "C2", "C3"}
	tags := []string{"a", "b", "c", "d"}
	ts := time.Duration(0)
	out := make([]*stream.Tuple, 0, n)
	for i := 0; i < n; i++ {
		if rng.Intn(4) > 0 {
			ts += time.Duration(rng.Intn(3)) * time.Second
		}
		out = append(out, mk(streams[rng.Intn(len(streams))], ts, tags[rng.Intn(len(tags))]))
	}
	return out
}

func keyed(def Def) Def {
	for i := range def.Steps {
		def.Steps[i].Key = func(t *stream.Tuple) stream.Value { return t.Get(1) }
	}
	return def
}

// TestPushBatchMatchesSerial cross-checks the batch path
// against tuple-at-a-time Push: same matches, same emission order, for
// every pairing mode, keyed and unkeyed, windowed and not, at batch sizes
// spanning the degenerate and the amortizing.
func TestPushBatchMatchesSerial(t *testing.T) {
	modes := []Mode{ModeUnrestricted, ModeRecent, ModeChronicle, ModeConsecutive}
	for _, mode := range modes {
		for _, part := range []bool{false, true} {
			for _, win := range []bool{false, true} {
				def := seqDef(mode, "C1", "C2", "C3")
				if part {
					def = keyed(def)
				}
				if win {
					def.Window = &WindowAnchor{Span: 5 * time.Second, Step: len(def.Steps) - 1}
				}
				for _, batch := range []int{1, 3, 7, 64} {
					rng := rand.New(rand.NewSource(int64(batch) + 17*int64(mode)))
					tuples := trace(rng, 300)
					serial := MustMatcher(def)
					batched := MustMatcher(def)
					want := feed(t, serial, tuples...)
					got := batchFeed(t, batched, batch, tuples)
					if !reflect.DeepEqual(sigs(want), sigs(got)) {
						t.Fatalf("mode=%v part=%v win=%v batch=%d:\nserial %v\nbatch  %v",
							mode, part, win, batch, sigs(want), sigs(got))
					}
					if serial.StateSize() != batched.StateSize() {
						t.Fatalf("mode=%v part=%v win=%v batch=%d: state %d vs %d",
							mode, part, win, batch, serial.StateSize(), batched.StateSize())
					}
				}
			}
		}
	}
}

// TestPushBatchStepFilters checks that per-tuple step filters apply on the
// batch path (resolution is per-alias, filters per-tuple).
func TestPushBatchStepFilters(t *testing.T) {
	def := seqDef(ModeUnrestricted, "C1", "C2")
	def.Steps[0].Filter = func(t *stream.Tuple) bool {
		v, _ := t.Get(1).AsString()
		return v == "a"
	}
	tuples := []*stream.Tuple{
		mk("C1", 1*time.Second, "a"),
		mk("C1", 2*time.Second, "b"), // filtered out of step 0
		mk("C2", 3*time.Second, "a"),
	}
	serial := MustMatcher(def)
	batched := MustMatcher(def)
	want := feed(t, serial, tuples...)
	got := batchFeed(t, batched, 64, tuples)
	if len(want) != 1 || !reflect.DeepEqual(sigs(want), sigs(got)) {
		t.Fatalf("serial %v batch %v", sigs(want), sigs(got))
	}
}

// TestPushBatchSelfSequence exercises one tuple qualifying for several
// steps (same stream aliased at every position) so the batch path must
// preserve the descending same-arrival step order and the per-tuple
// key-visit order.
func TestPushBatchSelfSequence(t *testing.T) {
	for _, part := range []bool{false, true} {
		def := seqDef(ModeUnrestricted, "R1", "R2")
		if part {
			def = keyed(def)
		}
		rng := rand.New(rand.NewSource(5))
		var tuples []*stream.Tuple
		ts := time.Duration(0)
		for i := 0; i < 120; i++ {
			if rng.Intn(3) > 0 {
				ts += time.Second
			}
			tuples = append(tuples, mk("R1", ts, []string{"a", "b"}[rng.Intn(2)]))
		}
		serial := MustMatcher(def)
		batched := MustMatcher(def)
		var want []*Match
		for _, tu := range tuples {
			ms, err := serial.Push(tu, "R1", "R2")
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, ms...)
		}
		r := batched.Resolve("R1", "R2")
		var got []*Match
		for i := 0; i < len(tuples); i += 16 {
			j := i + 16
			if j > len(tuples) {
				j = len(tuples)
			}
			bms, err := batched.PushBatchAt(r, tuples[i:j], nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, bm := range bms {
				got = append(got, bm.Match)
			}
		}
		if !reflect.DeepEqual(sigs(want), sigs(got)) {
			t.Fatalf("part=%v:\nserial %v\nbatch  %v", part, sigs(want), sigs(got))
		}
	}
}

// TestPushBatchInterleavedAdvance checks that eviction deferred to batch
// boundaries leaves the same state and matches as per-tuple advance for
// windowed patterns (bind-time window checks are the oracle).
func TestPushBatchInterleavedAdvance(t *testing.T) {
	def := keyed(seqDef(ModeUnrestricted, "C1", "C2"))
	def.Window = &WindowAnchor{Span: 2 * time.Second, Step: 1}
	serial := MustMatcher(def)
	batched := MustMatcher(def)
	tuples := []*stream.Tuple{
		mk("C1", 1*time.Second, "a"),
		mk("C1", 2*time.Second, "b"),
		mk("C2", 5*time.Second, "a"), // outside window: no match
		mk("C1", 6*time.Second, "a"),
		mk("C2", 7*time.Second, "a"),
	}
	var want []*Match
	for _, tu := range tuples {
		ms, _ := serial.Push(tu, tu.Schema.Name())
		want = append(want, ms...)
		serial.Advance(tu.TS) // eager per-tuple advance
	}
	got := batchFeed(t, batched, 64, tuples)
	batched.Advance(tuples[len(tuples)-1].TS) // one advance per batch
	if !reflect.DeepEqual(sigs(want), sigs(got)) {
		t.Fatalf("serial %v batch %v", sigs(want), sigs(got))
	}
	if serial.StateSize() != batched.StateSize() {
		t.Fatalf("state %d vs %d", serial.StateSize(), batched.StateSize())
	}
}

// TestPushBatchRunOfOneAllocs pins the cost of tuple-at-a-time delivery: the
// engine hands a time-sensitive engine's tuples to the matcher as runs of
// one, so a one-tuple PushBatchAt on a keyed pattern must allocate no more
// than PushResolved does for the same tuple.
func TestPushBatchRunOfOneAllocs(t *testing.T) {
	def := keyed(seqDef(ModeChronicle, "C1", "C2", "C3"))
	def.Window = &WindowAnchor{Span: 5 * time.Second, Step: 2}
	const warm, runs = 10, 150
	tags := []string{"a", "b", "c", "d"}
	var cycles [][]*stream.Tuple
	at := time.Duration(0)
	for i := 0; i < warm+runs+1; i++ {
		var c []*stream.Tuple
		for _, s := range []string{"C1", "C2", "C3"} {
			at += 100 * time.Millisecond
			c = append(c, mk(s, at, tags[i%len(tags)]))
		}
		cycles = append(cycles, c)
	}
	measure := func(push func(m *Matcher, r *Resolved, tu *stream.Tuple) int) (allocs float64, matches int) {
		m := MustMatcher(def)
		res := map[string]*Resolved{}
		for _, s := range []string{"C1", "C2", "C3"} {
			res[s] = m.Resolve(s)
		}
		next := 0
		cycle := func() {
			for _, tu := range cycles[next] {
				matches += push(m, res[tu.Schema.Name()], tu)
			}
			next++
		}
		for i := 0; i < warm; i++ {
			cycle()
		}
		return testing.AllocsPerRun(runs, cycle), matches
	}
	one := make([]*stream.Tuple, 1)
	batchAllocs, batchMatches := measure(func(m *Matcher, r *Resolved, tu *stream.Tuple) int {
		one[0] = tu
		bms, err := m.PushBatchAt(r, one, nil)
		if err != nil {
			t.Fatal(err)
		}
		return len(bms)
	})
	serialAllocs, serialMatches := measure(func(m *Matcher, r *Resolved, tu *stream.Tuple) int {
		ms, err := m.PushResolved(r, tu)
		if err != nil {
			t.Fatal(err)
		}
		return len(ms)
	})
	if serialMatches != warm+runs+1 || batchMatches != serialMatches {
		t.Fatalf("matches: PushResolved %d, PushBatchAt %d, want %d each", serialMatches, batchMatches, warm+runs+1)
	}
	if batchAllocs > serialAllocs {
		t.Fatalf("allocs per 3-tuple cycle: one-tuple PushBatchAt %.1f > PushResolved %.1f", batchAllocs, serialAllocs)
	}
}
