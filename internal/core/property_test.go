package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/stream"
)

// randomHistory builds a random joint history over the streams, with
// strictly increasing timestamps, and returns it with per-stream counts.
func randomHistory(rng *rand.Rand, streams []string, n int) ([]*stream.Tuple, map[string]int) {
	counts := make(map[string]int)
	var hist []*stream.Tuple
	at := time.Duration(0)
	for i := 0; i < n; i++ {
		at += time.Duration(1+rng.Intn(900)) * time.Millisecond
		s := streams[rng.Intn(len(streams))]
		counts[s]++
		hist = append(hist, mk(s, at, "x"))
	}
	return hist, counts
}

// Property: UNRESTRICTED match count for SEQ(S1,...,Sk) when all S1 tuples
// precede all S2 tuples etc. equals the product of per-step counts.
func TestUnrestrictedProductProperty(t *testing.T) {
	f := func(a, b, c uint8) bool {
		na, nb, nc := int(a%5)+1, int(b%5)+1, int(c%5)+1
		m := MustMatcher(seqDef(ModeUnrestricted, "C1", "C2", "C3"))
		at := time.Duration(0)
		emit := func(name string, k int) int {
			total := 0
			for i := 0; i < k; i++ {
				at += time.Second
				got, _ := m.Push(mk(name, at, "x"), name)
				total += len(got)
			}
			return total
		}
		emit("C1", na)
		emit("C2", nb)
		return emit("C3", nc) == na*nb*nc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: RECENT and CHRONICLE emit at most one event per terminal-stream
// tuple, on any random history.
func TestSingleEmissionProperty(t *testing.T) {
	for _, mode := range []Mode{ModeRecent, ModeChronicle} {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			m := MustMatcher(seqDef(mode, "C1", "C2", "C3"))
			hist, _ := randomHistory(rng, []string{"C1", "C2", "C3"}, 60)
			for _, tu := range hist {
				got, _ := m.Push(tu, tu.Schema.Name())
				if len(got) > 1 {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("mode %v: %v", mode, err)
		}
	}
}

// Property: CHRONICLE never reuses a tuple across matches.
func TestChronicleDisjointProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := MustMatcher(seqDef(ModeChronicle, "C1", "C2", "C3"))
		hist, _ := randomHistory(rng, []string{"C1", "C2", "C3"}, 80)
		used := make(map[*stream.Tuple]bool)
		for _, tu := range hist {
			got, _ := m.Push(tu, tu.Schema.Name())
			for _, ev := range got {
				for _, g := range ev.Groups {
					for _, x := range g {
						if used[x] {
							return false
						}
						used[x] = true
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: every CHRONICLE/RECENT/UNRESTRICTED match is time-ordered
// (strictly ascending across groups).
func TestMatchOrderProperty(t *testing.T) {
	for _, mode := range []Mode{ModeUnrestricted, ModeRecent, ModeChronicle} {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			m := MustMatcher(seqDef(mode, "C1", "C2", "C3"))
			hist, _ := randomHistory(rng, []string{"C1", "C2", "C3"}, 50)
			for _, tu := range hist {
				got, _ := m.Push(tu, tu.Schema.Name())
				for _, ev := range got {
					var prev *stream.Tuple
					for _, g := range ev.Groups {
						for _, x := range g {
							if prev != nil && !prev.BeforeInOrder(x) {
								return false
							}
							prev = x
						}
					}
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Errorf("mode %v: %v", mode, err)
		}
	}
}

// Property: CONSECUTIVE matches are contiguous on the joint history (global
// Seq numbers are dense within a match).
func TestConsecutiveContiguityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := MustMatcher(seqDef(ModeConsecutive, "C1", "C2", "C3"))
		hist, _ := randomHistory(rng, []string{"C1", "C2", "C3"}, 80)
		for _, tu := range hist {
			got, _ := m.Push(tu, tu.Schema.Name())
			for _, ev := range got {
				var prev *stream.Tuple
				for _, g := range ev.Groups {
					for _, x := range g {
						if prev != nil && x.Seq != prev.Seq+1 {
							return false
						}
						prev = x
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: RECENT state is bounded by the square of the pattern length
// regardless of history length (one chain per prefix, each chain one tuple
// per step) — the paper's "aggressive purge" claim.
func TestRecentStateBoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := MustMatcher(seqDef(ModeRecent, "C1", "C2", "C3", "C4"))
		hist, _ := randomHistory(rng, []string{"C1", "C2", "C3", "C4"}, 200)
		for _, tu := range hist {
			m.Push(tu, tu.Schema.Name())
			if m.StateSize() > 16 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: every mode's matches also satisfy the plain SEQ definition —
// each match is a subset of the pushed history in correct stream order.
func TestMatchesAreValidSequencesProperty(t *testing.T) {
	aliases := []string{"C1", "C2", "C3"}
	for _, mode := range []Mode{ModeUnrestricted, ModeRecent, ModeChronicle, ModeConsecutive} {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			m := MustMatcher(seqDef(mode, aliases...))
			hist, _ := randomHistory(rng, aliases, 60)
			inHist := make(map[*stream.Tuple]bool, len(hist))
			for _, tu := range hist {
				inHist[tu] = true
				got, _ := m.Push(tu, tu.Schema.Name())
				for _, ev := range got {
					if len(ev.Groups) != len(aliases) {
						return false
					}
					for i, g := range ev.Groups {
						if len(g) != 1 || !inHist[g[0]] || g[0].Schema.Name() != aliases[i] {
							return false
						}
					}
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Errorf("mode %v: %v", mode, err)
		}
	}
}

// Property: the exception matcher over a random history never loses track —
// completions plus wrong-tuple/bad-start exceptions account for every
// terminal state, and completion level always stays within bounds.
func TestExceptionLevelBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := MustExceptionMatcher(Def{
			Steps: []Step{{Alias: "A1"}, {Alias: "A2"}, {Alias: "A3"}},
			Mode:  ModeConsecutive,
		})
		hist, _ := randomHistory(rng, []string{"A1", "A2", "A3"}, 60)
		for _, tu := range hist {
			_, exs, err := m.Push(tu, tu.Schema.Name())
			if err != nil {
				return false
			}
			for _, x := range exs {
				if x.Level < 0 || x.Level >= 3 {
					return false
				}
			}
			if lv := m.CompletionLevel(stream.Null); lv < 0 || lv >= 3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: an EXPIRE AFTER longer than the whole history prunes nothing,
// so in every mode, star or not, the pattern emits exactly the matches it
// emits without one — with the clock advanced to every arrival, so each
// idle test runs.
func TestExpireAfterBeyondTraceProperty(t *testing.T) {
	aliases := []string{"C1", "C2", "C3"}
	for _, mode := range []Mode{ModeUnrestricted, ModeRecent, ModeChronicle, ModeConsecutive} {
		for _, star := range []bool{false, true} {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				hist, _ := randomHistory(rng, aliases, 60)
				plain := seqDef(mode, aliases...)
				plain.Steps[0].Star = star
				expiring := seqDef(mode, aliases...)
				expiring.Steps[0].Star = star
				expiring.ExpireAfter = hist[len(hist)-1].TS.Sub(0) + time.Second
				a, b := MustMatcher(plain), MustMatcher(expiring)
				for _, tu := range hist {
					x, _ := a.Push(tu, tu.Schema.Name())
					y, _ := b.Push(tu, tu.Schema.Name())
					if !slices.Equal(sigs(x), sigs(y)) {
						return false
					}
					a.Advance(tu.TS)
					b.Advance(tu.TS)
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
				t.Errorf("mode %v star=%v: %v", mode, star, err)
			}
		}
	}
}
