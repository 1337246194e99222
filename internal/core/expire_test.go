package core

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/snapshot"
	"repro/internal/stream"
)

// EXPIRE AFTER holds in the chain modes: a C1 idle past 3 s when the clock
// moves on — a heartbeat at 5 s — no longer pairs with a later C2. Without
// the heartbeat the clock stands at 1 s until C2 arrives, so the partial
// was never seen idle and the pair matches, as in the run engine.
func TestChainExpireAfter(t *testing.T) {
	for _, mode := range []Mode{ModeUnrestricted, ModeRecent, ModeChronicle} {
		def := seqDef(mode, "C1", "C2")
		def.ExpireAfter = 3 * time.Second
		m := MustMatcher(def)
		feed(t, m, mk("C1", time.Second, "x"))
		m.Advance(stream.TS(5 * time.Second))
		if got := feed(t, m, mk("C2", 10*time.Second, "x")); len(got) != 0 {
			t.Errorf("%s: C1@1 idle since the 5 s heartbeat still matched: %v", mode, sigs(got))
		}
		if n := m.StateSize(); n != 0 {
			t.Errorf("%s: %d tuples retained after expiry", mode, n)
		}

		m = MustMatcher(def)
		wantSigs(t, feed(t, m, mk("C1", time.Second, "x"), mk("C2", 10*time.Second, "x")), "t1,t10")
	}
}

// A partial that bound its next step while alive lives on from that
// tuple: C1@1·C2@3 survives the C1@1 prefix going idle at 5 s, and C3@6
// completes it. C2@7 arrives after C1@1 idled out, so it starts no
// partial from it, and C3@8 arrives after C1@1·C2@3 idled out.
func TestChainExpireAfterKeepsExtendedPrefix(t *testing.T) {
	for _, mode := range []Mode{ModeUnrestricted, ModeChronicle} {
		def := seqDef(mode, "C1", "C2", "C3")
		def.ExpireAfter = 3 * time.Second
		m := MustMatcher(def)
		feed(t, m, mk("C1", time.Second, "x"), mk("C2", 3*time.Second, "x"))
		m.Advance(stream.TS(5 * time.Second))
		wantSigs(t, feed(t, m, mk("C3", 6*time.Second, "x")), "t1,t3,t6")
		if mode == ModeChronicle {
			continue // C1@1 and C2@3 are consumed
		}
		feed(t, m, mk("C2", 7*time.Second, "x"))
		wantSigs(t, feed(t, m, mk("C3", 8*time.Second, "x")))
	}
}

// The chain engine's idle expiry is the run engine's: over random
// histories with random heartbeats, an UNRESTRICTED chain-engine matcher
// and one running the run engine on the same star-free pattern emit the
// same matches per trigger (in another order: forks visit by creation).
// UNRESTRICTED is where the comparison is exact — both enumerate every
// combination; under CHRONICLE the run engine commits a tuple to the oldest
// run on arrival, while the chain engine picks the earliest chain at
// completion, and any constraint — a window, a predicate, idle expiry —
// can tell the two apart.
func TestChainExpireAfterAgreesWithRunEngine(t *testing.T) {
	aliases := []string{"C1", "C2", "C3"}
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		def := seqDef(ModeUnrestricted, aliases...)
		def.ExpireAfter = time.Duration(1+rng.Intn(3)) * time.Second
		chain, runs := MustMatcher(def), MustMatcher(def)
		runs.single = newRunEngine(&runs.def, stream.Null)
		hist, _ := randomHistory(rng, aliases, 40)
		for i, tu := range hist {
			if rng.Intn(3) == 0 {
				hb := tu.TS.Add(-time.Duration(rng.Intn(900)) * time.Millisecond)
				chain.Advance(hb)
				runs.Advance(hb)
			}
			a, b := sigs(feed(t, chain, tu)), sigs(feed(t, runs, tu))
			slices.Sort(a)
			slices.Sort(b)
			if !slices.Equal(a, b) {
				t.Fatalf("seed %d (expire %s) tuple %d: chain %v, run engine %v",
					seed, def.ExpireAfter, i, a, b)
			}
		}
	}
}

// A stamped chain body leads with its (empty) chains section; a body saved
// before stamps existed leads with its buffer count and must fail Load with
// a typed error.
func TestLoadRejectsUnstampedExpireBody(t *testing.T) {
	def := seqDef(ModeChronicle, "C1", "C2")
	def.ExpireAfter = 3 * time.Second
	enc := snapshot.NewEncoder()
	enc.TS(stream.TS(time.Second))
	enc.Bool(false) // unpartitioned
	enc.Uvarint(1)  // one history buffer, for C1
	enc.Uvarint(1)
	enc.Tuple(mk("C1", time.Second, "x"))
	enc.Uvarint(0) // no RECENT chains
	enc.Uvarint(0) // no timers
	if err := MustMatcher(def).Load(reopen(t, enc)); !errors.Is(err, snapshot.ErrStateMismatch) {
		t.Fatalf("Load = %v, want ErrStateMismatch", err)
	}

	// And a stamped body round-trips: the restored matcher keeps the stamp
	// that lets C2@3 follow C1@1 after C1@1 itself has idled out.
	def = seqDef(ModeUnrestricted, "C1", "C2", "C3")
	def.ExpireAfter = 3 * time.Second
	m := MustMatcher(def)
	feed(t, m, mk("C1", time.Second, "x"), mk("C2", 3*time.Second, "x"))
	m.Advance(stream.TS(5 * time.Second))
	re := MustMatcher(def)
	if err := re.Load(reopen(t, saveEncoder(m))); err != nil {
		t.Fatal(err)
	}
	wantSigs(t, feed(t, re, mk("C3", 6*time.Second, "x")), "t1,t3,t6")
}

func saveEncoder(m *Matcher) *snapshot.Encoder {
	enc := snapshot.NewEncoder()
	m.Save(enc)
	return enc
}
