package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/stream"
)

// sweep is eager eviction, the reference lazy eviction is held to: Advance,
// then advance every partition to ts.
func sweep(m *Matcher, ts stream.Timestamp) {
	m.Advance(ts)
	m.eachPartition(func(p *partition) { p.eng.advance(ts) })
}

// FuzzLazyEviction holds touch-driven eviction and reclamation to eager
// eviction. The reference sweeps every partition on every Advance and never
// reclaims one; the candidate is the matcher as built. Both see the same
// pushes and the same Advances — after a dropped tuple (an arrival no step
// reads) and at cuts (heartbeats) — over every pattern shape
// pushFuzzShape decodes, exception matchers included. Matches (with their
// triggering tuple) and exceptions (in raise order) must agree, and so must
// StateSize, RunCount and each key's completion level at every heartbeat
// and after a final Advance.
func FuzzLazyEviction(f *testing.F) {
	f.Add([]byte{0, 0x00, 0x01, 0x42, 0x05, 0x06})
	f.Add([]byte{4 + 96, 0x00, 0x08, 0x24, 0x04, 0x41, 0x19, 0x02, 0xc6, 0x00, 0x01, 0x42})
	f.Add([]byte{8 + 24 + 96, 0x00, 0x18, 0x21, 0x59, 0x01, 0x62, 0x80, 0x00, 0x01, 0x42})
	f.Add([]byte{16 + 96, 0x00, 0x01, 0x38, 0x61, 0x20, 0x02, 0x00, 0x41, 0x98, 0x01})
	// RECENT chains under a PRECEDING and a FOLLOWING window, keyed.
	f.Add([]byte{1 + 8 + 96, 0x00, 0x04, 0x09, 0x44, 0x19, 0x02, 0x98, 0x01, 0x42, 0x00, 0x05, 0x41})
	f.Add([]byte{1 + 16 + 96, 0x00, 0x0c, 0x01, 0x58, 0x04, 0x81, 0x00, 0x09, 0x4a, 0x1c, 0x01})
	// Keyed exception matchers: RECENT under FOLLOWING, CONSECUTIVE under
	// PRECEDING.
	f.Add([]byte{1 + 16 + 48 + 96, 0x00, 0x01, 0x04, 0x41, 0x1c, 0x02, 0x80, 0x05, 0x46, 0x00, 0x01, 0x02})
	f.Add([]byte{3 + 8 + 48 + 96, 0x00, 0x04, 0x09, 0x0d, 0x42, 0x98, 0x06, 0x00, 0x41, 0x01, 0x02})
	f.Add([]byte{2 + 24 + 96, 0x04, 0x00, 0x18, 0x41, 0x20, 0x06, 0x80, 0x44, 0x01, 0x02})
	// Random traces, eight per shape, so plain `go test` already checks the
	// law broadly. Heartbeats and 10 s gaps are rare: the check's own
	// StateSize advances every partition, which would mask a missed
	// eviction on touch, and a long gap expires everything alike.
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 8*256; i++ {
		data := make([]byte, 1+rng.Intn(48))
		rng.Read(data)
		for j := range data {
			data[j] &^= 0xc0
			if rng.Intn(8) == 0 {
				data[j] |= 0x40
			}
			if rng.Intn(8) == 0 {
				data[j] |= 0x80
			}
		}
		data[0] = byte(i)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 129 {
			return
		}
		def, exceptions, ok := pushFuzzShape(data[0])
		if !ok {
			return
		}
		build := func() *Matcher {
			if exceptions {
				m, err := NewExceptionSeqMatcher(def)
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			return MustMatcher(def)
		}
		evs := pushFuzzTrace(data[1:])
		ref, cand := build(), build()
		ref.bound = 0 // the reference never reclaims
		var refMatches, candMatches, refExs, candExs []string
		check := func(when string) {
			if r, c := ref.StateSize(), cand.StateSize(); r != c {
				t.Fatalf("%s: state size eager %d, lazy %d", when, r, c)
			}
			if r, c := ref.RunCount(), cand.RunCount(); r != c {
				t.Fatalf("%s: run count eager %d, lazy %d", when, r, c)
			}
			if !exceptions {
				return
			}
			for _, key := range []stream.Value{stream.Str("a"), stream.Str("b")} {
				r := (&ExceptionMatcher{ref}).CompletionLevel(key)
				if c := (&ExceptionMatcher{cand}).CompletionLevel(key); r != c {
					t.Fatalf("%s: completion level of %s eager %d, lazy %d", when, key, r, c)
				}
			}
		}
		advance := func(ts stream.Timestamp) {
			sweep(ref, ts)
			cand.Advance(ts)
			refExs = pushFuzzExceptions(refExs, ref.TakeExceptions())
			candExs = pushFuzzExceptions(candExs, cand.TakeExceptions())
		}
		for i, ev := range evs {
			if ev.drop {
				advance(ev.t.TS)
			} else {
				for _, side := range []struct {
					m        *Matcher
					out, exs *[]string
				}{{ref, &refMatches, &refExs}, {cand, &candMatches, &candExs}} {
					ms, err := side.m.Push(ev.t, ev.t.Schema.Name())
					if err != nil {
						t.Fatal(err)
					}
					for _, m := range ms {
						*side.out = append(*side.out, pushFuzzMatch(ev.t, m))
					}
					*side.exs = pushFuzzExceptions(*side.exs, side.m.TakeExceptions())
				}
			}
			if ev.cut {
				advance(ev.t.TS)
				check(fmt.Sprintf("heartbeat after event %d", i))
			}
		}
		advance(evs[len(evs)-1].t.TS.Add(time.Minute))
		check("final advance")
		if !reflect.DeepEqual(candMatches, refMatches) {
			t.Fatalf("matches differ:\nlazy:  %q\neager: %q", candMatches, refMatches)
		}
		if !reflect.DeepEqual(candExs, refExs) {
			t.Fatalf("exceptions differ:\nlazy:  %q\neager: %q", candExs, refExs)
		}
	})
}
