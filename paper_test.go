package eslev

// The paper's qualitative performance claims, held as assertions at small
// scale: pairing modes prune the composite events SEQ returns (PERF-B),
// a window and a mode bound SEQ's state where the footnote-3 join keeps
// the full history (PERF-A), and a DSMS groups a case's items and purges
// its state where a standalone graph event engine does neither (PERF-C).
// Each shape's generator and matcher definition lives here once; the
// PERF benchmarks in bench_test.go time the same shapes.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rceda"
	"repro/internal/rfid"
	"repro/internal/sqljoin"
	"repro/internal/stream"
)

var qcSchemas = func() map[string]*stream.Schema {
	m := map[string]*stream.Schema{}
	for _, n := range []string{"C1", "C2", "C3", "C4"} {
		m[n] = stream.MustSchema(n,
			stream.Field{Name: "readerid"},
			stream.Field{Name: "tagid"},
			stream.Field{Name: "tagtime"})
	}
	return m
}()

// qcTuple is a reading on one of the C streams, tagged "x".
func qcTuple(name string, at stream.Timestamp) *stream.Tuple {
	return stream.MustTuple(qcSchemas[name], at, stream.Str(name), stream.Str("x"), stream.Null)
}

// ---- PERF-B: events per terminal tuple vs per-step fan-in ------------------

// blowupDef is PERF-B's SEQ(C1, C2, C3) under mode, in a one-hour window
// before the terminal.
func blowupDef(mode core.Mode) core.Def {
	return core.Def{
		Steps:  []core.Step{{Alias: "C1"}, {Alias: "C2"}, {Alias: "C3"}},
		Mode:   mode,
		Window: &core.WindowAnchor{Span: time.Hour, Step: 2},
	}
}

// blowupGen yields PERF-B's rounds forever: k C1s, k C2s, then one
// terminal C3, one second apart, then a two-hour gap that takes the round
// out of the window.
type blowupGen struct {
	k, pos int
	at     stream.Timestamp
}

func (g *blowupGen) next() *stream.Tuple {
	name := "C3"
	switch {
	case g.pos < g.k:
		name = "C1"
	case g.pos < 2*g.k:
		name = "C2"
	}
	g.at = g.at.Add(time.Second)
	tu := qcTuple(name, g.at)
	if g.pos++; g.pos == 2*g.k+1 {
		g.pos = 0
		g.at = g.at.Add(2 * time.Hour)
	}
	return tu
}

// UNRESTRICTED returns every one of the k*k (C1, C2) pairs with each
// terminal; RECENT and CHRONICLE return exactly one.
func TestPaperModeBlowup(t *testing.T) {
	for _, k := range []int{2, 4, 8, 16, 32} {
		for _, mode := range []core.Mode{core.ModeUnrestricted, core.ModeRecent, core.ModeChronicle} {
			want := 1
			if mode == core.ModeUnrestricted {
				want = k * k
			}
			m := core.MustMatcher(blowupDef(mode))
			g := &blowupGen{k: k}
			for round := 0; round < 3; round++ {
				events := 0
				for i := 0; i <= 2*k; i++ {
					tu := g.next()
					ms, err := m.Push(tu, tu.Schema.Name())
					if err != nil {
						t.Fatal(err)
					}
					events += len(ms)
				}
				if events != want {
					t.Fatalf("k=%d %s round %d: %d events for one terminal, want %d", k, mode, round, events, want)
				}
			}
		}
	}
}

// ---- PERF-A: windowed RECENT SEQ vs the footnote-3 full-history join -------

// windowedRecentDef is PERF-A's ESL-EV side: SEQ(C1, C2, C3) under RECENT
// in a 10 s window before the terminal.
func windowedRecentDef() core.Def {
	return core.Def{
		Steps:  []core.Step{{Alias: "C1"}, {Alias: "C2"}, {Alias: "C3"}},
		Mode:   core.ModeRecent,
		Window: &core.WindowAnchor{Span: 10 * time.Second, Step: 2},
	}
}

// seqJoinGen yields PERF-A's stream forever: C1, C2 and C3 in turn, one
// second apart; every C3 is a terminal arrival.
type seqJoinGen struct {
	i  int
	at stream.Timestamp
}

func (g *seqJoinGen) next() *stream.Tuple {
	name := [...]string{"C1", "C2", "C3"}[g.i%3]
	g.i++
	g.at = g.at.Add(time.Second)
	return qcTuple(name, g.at)
}

// After n tuples the windowed RECENT matcher holds one chain, 3 tuples,
// while the join holds every C1 and C2 it has seen, ceil(2n/3).
func TestPaperWindowBoundsState(t *testing.T) {
	for _, n := range []int{250, 500, 1000} {
		m := core.MustMatcher(windowedRecentDef())
		j, err := sqljoin.New("C1", "C2", "C3")
		if err != nil {
			t.Fatal(err)
		}
		g := &seqJoinGen{}
		for i := 0; i < n; i++ {
			tu := g.next()
			if _, err := m.Push(tu, tu.Schema.Name()); err != nil {
				t.Fatal(err)
			}
			j.Push(tu.Schema.Name(), tu)
		}
		if got := m.StateSize(); got != 3 {
			t.Errorf("n=%d: windowed RECENT state %d, want 3", n, got)
		}
		if got, want := j.StateSize(), (2*n+2)/3; got != want {
			t.Errorf("n=%d: join state %d, want %d", n, got, want)
		}
	}
}

// ---- PERF-C: ESL-EV vs the RCEDA-style graph engine ------------------------

// containmentDef is PERF-C's ESL-EV side, Example 7's SEQ(R1*, R2) under
// CHRONICLE: items at most 1 s apart, the case at most 5 s after the last
// item, and a run idle for 10 s expires.
func containmentDef() core.Def {
	return core.Def{
		Steps: []core.Step{
			{Alias: "R1", Star: true, MaxGap: time.Second},
			{Alias: "R2"},
		},
		Mode: core.ModeChronicle,
		Pred: func(partial *core.Match, step int, t *stream.Tuple) bool {
			if step != 1 {
				return true
			}
			last := partial.Last(0)
			return last != nil && t.TS.Sub(last.TS) <= 5*time.Second
		},
		ExpireAfter: 10 * time.Second,
	}
}

// rcedaContainment is the graph engine's closest pattern, SEQ(R1, R2)
// under chronicle consumption, counting its detections into events. It
// has no star operator, so it pairs one item with each case and cannot
// state the gap or the deadline.
func rcedaContainment(tb testing.TB, events *int) *rceda.Engine {
	eng := rceda.NewEngine()
	seq := eng.Seq(eng.Primitive("R1", nil), eng.Primitive("R2", nil), rceda.Chronicle)
	if err := eng.AddRule(&rceda.Rule{Node: seq, Action: func(*rceda.Instance) { *events++ }}); err != nil {
		tb.Fatal(err)
	}
	return eng
}

// packingTuple is a packing-line reading stamped at.
func packingTuple(r rfid.Reading, at stream.Timestamp) *stream.Tuple {
	return stream.MustTuple(qcSchemas["C1"], at, stream.Str(r.ReaderID), stream.Str(r.TagID), stream.Null)
}

// Both engines detect each on-time case once, but only ESL-EV forgets a
// case once it is done: its state is empty after the last reading, while
// the graph engine keeps every unpaired item.
func TestPaperEslevVsRceda(t *testing.T) {
	prevRceda := 0
	for _, cases := range []int{100, 200, 400} {
		trace, truth := rfid.PackingLine(rfid.PackingConfig{Cases: cases, Seed: 9})
		onTime := 0
		for _, c := range truth {
			if !c.LateCase && !c.Missed {
				onTime++
			}
		}
		name := fmt.Sprintf("%d cases", cases)

		m := core.MustMatcher(containmentDef())
		events := 0
		for _, r := range trace.Readings {
			ms, err := m.Push(packingTuple(r, r.At), r.Stream)
			if err != nil {
				t.Fatal(err)
			}
			events += len(ms)
		}
		m.Advance(trace.Readings[len(trace.Readings)-1].At)
		if events != onTime {
			t.Errorf("%s: ESL-EV detected %d, want %d on-time cases", name, events, onTime)
		}
		if got := m.StateSize(); got != 0 {
			t.Errorf("%s: ESL-EV retains %d tuples after the last reading, want 0", name, got)
		}

		gEvents := 0
		eng := rcedaContainment(t, &gEvents)
		for _, r := range trace.Readings {
			eng.Push(r.Stream, packingTuple(r, r.At))
		}
		if gEvents != onTime {
			t.Errorf("%s: RCEDA detected %d, want %d on-time cases", name, gEvents, onTime)
		}
		if got := eng.StateSize(); got <= prevRceda {
			t.Errorf("%s: RCEDA retains %d tuples, want more than the %d of a smaller trace", name, got, prevRceda)
		} else {
			prevRceda = got
		}
	}
}
