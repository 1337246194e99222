package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/stream"
)

// pushFuzzShape decodes one byte into a pattern over C1, C2, C3: each of
// the four pairing modes, a star first step or not, no window or a 4 s
// PRECEDING (anchored at the last step) or FOLLOWING (anchored at the
// first) window, EXPIRE AFTER 3 s or not, an exception matcher or not, and
// partitioned by tag or not. ok is false for the shapes NewExceptionSeqMatcher
// rejects.
func pushFuzzShape(b byte) (def Def, exceptions, ok bool) {
	def = seqDef(Mode(b%4), "C1", "C2", "C3")
	def.Steps[0].Star = (b/4)%2 == 1
	switch (b / 8) % 3 {
	case 1:
		def.Window = &WindowAnchor{Span: 4 * time.Second, Step: 2}
	case 2:
		def.Window = &WindowAnchor{Span: 4 * time.Second, Step: 0, Following: true}
	}
	if (b/24)%2 == 1 {
		def.ExpireAfter = 3 * time.Second
	}
	exceptions = (b/48)%2 == 1
	if (b/96)%2 == 1 {
		def = keyed(def)
	}
	ok = !exceptions || (!def.Steps[0].Star && def.Mode != ModeChronicle)
	return def, exceptions, ok
}

// pushFuzzEvent is one decoded trace byte: the tuple, whether a route guard
// drops it, and whether delivery cuts the batch after it.
type pushFuzzEvent struct {
	t         *stream.Tuple
	drop, cut bool
}

// pushFuzzTrace decodes trace bytes: bits 0-1 pick the stream (3 is C3
// again), bit 2 the tag, bits 3-4 a step of 0, 1, 2 or 5 s and bit 7 a
// further 10 s; bit 5 drops the tuple and bit 6 cuts after it.
func pushFuzzTrace(data []byte) []pushFuzzEvent {
	streams := []string{"C1", "C2", "C3", "C3"}
	steps := []time.Duration{0, time.Second, 2 * time.Second, 5 * time.Second}
	var at time.Duration
	out := make([]pushFuzzEvent, 0, len(data))
	for i, x := range data {
		at += steps[(x>>3)&3]
		if x&0x80 != 0 {
			at += 10 * time.Second
		}
		tu := stream.MustTuple(qcSchema[streams[x&3]], stream.TS(at),
			stream.Str(streams[x&3]), stream.Str([]string{"a", "b"}[(x>>2)&1]), stream.Null)
		tu.Seq = uint64(i + 1)
		out = append(out, pushFuzzEvent{t: tu, drop: x&0x20 != 0, cut: x&0x40 != 0})
	}
	return out
}

func pushFuzzMatch(trigger *stream.Tuple, m *Match) string {
	return fmt.Sprintf("by %d:%s", trigger.Seq, pushFuzzGroups(m))
}

// pushFuzzGroups renders a match's groups by tuple sequence number.
func pushFuzzGroups(m *Match) string {
	var b strings.Builder
	for _, g := range m.Groups {
		b.WriteString(" [")
		for _, t := range g {
			fmt.Fprintf(&b, "%d,", t.Seq)
		}
		b.WriteString("]")
	}
	return b.String()
}

func pushFuzzExceptions(dst []string, exs []*Exception) []string {
	for _, x := range exs {
		s := fmt.Sprintf("%s L%d @%d", x.Reason, x.Level, x.TS)
		if x.Trigger != nil {
			s += fmt.Sprintf(" by %d", x.Trigger.Seq)
		}
		if x.Partial != nil {
			s += pushFuzzGroups(x.Partial)
		}
		dst = append(dst, s)
	}
	return dst
}

// FuzzPushBatchAt holds PushBatchAt to serial ingestion of the full joint
// history. The reference pushes every kept tuple and advances to every
// tuple's timestamp, kept or dropped. The candidate pushes each same-stream
// run of kept tuples through PushBatchAt, with the preceding full-history
// timestamps as horizons, and advances only at cuts. Matches (with their
// triggering tuple), exceptions in raise order and the state size after a
// final Advance must agree.
func FuzzPushBatchAt(f *testing.F) {
	f.Add([]byte{0, 0x00, 0x01, 0x02, 0x44, 0x05, 0x06})
	f.Add([]byte{4 + 96, 0x00, 0x08, 0x20, 0x04, 0x41, 0x19, 0x02, 0x86, 0x00, 0x01, 0x02})
	f.Add([]byte{8 + 24 + 96, 0x00, 0x18, 0x21, 0x19, 0x01, 0x62, 0x80, 0x00, 0x01, 0x42})
	f.Add([]byte{16 + 48 + 96, 0x00, 0x01, 0x38, 0x21, 0x20, 0x02, 0x00, 0x41, 0x98, 0x01})
	f.Add([]byte{3 + 4 + 24, 0x00, 0x00, 0x18, 0x01, 0x20, 0x20, 0x80, 0x00, 0x01, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 97 {
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
		last := evs[len(evs)-1].t.TS

		ref := build()
		var refMatches, refExs []string
		for _, ev := range evs {
			if !ev.drop {
				ms, err := ref.Push(ev.t, ev.t.Schema.Name())
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range ms {
					refMatches = append(refMatches, pushFuzzMatch(ev.t, m))
				}
			}
			ref.Advance(ev.t.TS)
			refExs = pushFuzzExceptions(refExs, ref.TakeExceptions())
		}
		ref.Advance(last)
		refExs = pushFuzzExceptions(refExs, ref.TakeExceptions())

		cand := build()
		var candMatches, candExs []string
		var kept []*stream.Tuple
		var prev []stream.Timestamp
		for i := 0; i < len(evs); {
			name := evs[i].t.Schema.Name()
			j := i
			kept, prev = kept[:0], prev[:0]
			for j < len(evs) && evs[j].t.Schema.Name() == name {
				if !evs[j].drop {
					kept = append(kept, evs[j].t)
					var p stream.Timestamp
					if j > 0 {
						p = evs[j-1].t.TS
					}
					prev = append(prev, p)
				}
				j++
				if evs[j-1].cut {
					break
				}
			}
			if len(kept) > 0 {
				bms, err := cand.PushBatchAt(cand.Resolve(name), kept, prev)
				if err != nil {
					t.Fatal(err)
				}
				for _, bm := range bms {
					candMatches = append(candMatches, pushFuzzMatch(kept[bm.Index], bm.Match))
				}
				candExs = pushFuzzExceptions(candExs, cand.TakeExceptions())
			}
			if evs[j-1].cut {
				cand.Advance(evs[j-1].t.TS)
				candExs = pushFuzzExceptions(candExs, cand.TakeExceptions())
			}
			i = j
		}
		cand.Advance(last)
		candExs = pushFuzzExceptions(candExs, cand.TakeExceptions())

		if !reflect.DeepEqual(candMatches, refMatches) {
			t.Fatalf("matches differ:\nbatch:  %q\nserial: %q", candMatches, refMatches)
		}
		if !reflect.DeepEqual(candExs, refExs) {
			t.Fatalf("exceptions differ:\nbatch:  %q\nserial: %q", candExs, refExs)
		}
		if c, r := cand.StateSize(), ref.StateSize(); c != r {
			t.Fatalf("state size: batch %d, serial %d", c, r)
		}
	})
}
