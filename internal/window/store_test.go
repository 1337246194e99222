package window

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/snapshot"
	"repro/internal/stream"
)

// stamp is a value-typed store element: an event time and a unique id.
type stamp struct {
	ts stream.Timestamp
	id int
}

func (s stamp) Time() stream.Timestamp { return s.ts }

func saveStamp(enc *snapshot.Encoder, s stamp) {
	enc.TS(s.ts)
	enc.Int(s.id)
}

func loadStamp(dec *snapshot.Decoder) (stamp, error) {
	ts, err := dec.TS()
	if err != nil {
		return stamp{}, err
	}
	id, err := dec.Int()
	return stamp{ts, id}, err
}

func contents(s *Store[stamp]) []stamp {
	var out []stamp
	s.Each(func(e stamp) bool { out = append(out, e); return true })
	return out
}

// saveStore renders a store's Save output as a decodable snapshot.
func saveStore(t *testing.T, s *Store[stamp]) []byte {
	t.Helper()
	enc := snapshot.NewEncoder()
	s.Save(enc, saveStamp)
	raw, err := enc.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func loadStore(t *testing.T, raw []byte, into *Store[stamp]) error {
	t.Helper()
	dec, err := snapshot.NewDecoderBytes(raw, func(string) (*stream.Schema, bool) { return nil, false })
	if err != nil {
		t.Fatal(err)
	}
	return into.Load(dec, loadStamp)
}

// TestStoreModel runs random Add/EvictBefore/Drop/EachInRange/Remove
// sequences against a naive slice, and checks after every step that the
// store holds what the slice holds and that Save→Load→Save reproduces the
// same bytes.
func TestStoreModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		var s Store[stamp]
		var ref []stamp
		now, id := stream.Timestamp(0), 0
		for op := 0; op < 200; op++ {
			switch k := rng.Intn(10); {
			case k < 5: // Add, duplicates likely
				now += stream.Timestamp(rng.Intn(3)) * stream.TS(time.Second)
				id++
				if err := s.Add(stamp{now, id}); err != nil {
					t.Fatal(err)
				}
				ref = append(ref, stamp{now, id})
			case k < 6: // EvictBefore anywhere from before the oldest to past the newest
				cut := stream.TS(time.Duration(rng.Intn(int(now/stream.TS(time.Second))+3)-1) * time.Second)
				want := 0
				for want < len(ref) && ref[want].ts < cut {
					want++
				}
				if got := s.EvictBefore(cut); got != want {
					t.Fatalf("trial %d: EvictBefore(%s) = %d, want %d", trial, cut, got, want)
				}
				ref = ref[want:]
			case k < 7: // Drop
				n := rng.Intn(len(ref) + 1)
				s.Drop(n)
				ref = ref[n:]
			case k < 8: // EachInRange, sometimes stopping early
				lo := stream.TS(time.Duration(rng.Intn(int(now/stream.TS(time.Second))+2)) * time.Second)
				hi := lo + stream.Timestamp(rng.Intn(4))*stream.TS(time.Second)
				stop := rng.Intn(4)
				var want, got []stamp
				for _, e := range ref {
					if e.ts >= lo && e.ts <= hi && (stop == 0 || len(want) < stop) {
						want = append(want, e)
					}
				}
				s.EachInRange(lo, hi, func(e stamp) bool {
					got = append(got, e)
					return stop == 0 || len(got) < stop
				})
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d: EachInRange(%s, %s) = %v, want %v", trial, lo, hi, got, want)
				}
			default: // Remove, of a held id or one already gone
				victim := id - rng.Intn(8)
				i := slices.IndexFunc(ref, func(e stamp) bool { return e.id == victim })
				if got := s.Remove(func(e stamp) bool { return e.id == victim }); got != (i >= 0) {
					t.Fatalf("trial %d: Remove(%d) = %v, want %v", trial, victim, got, i >= 0)
				}
				if i >= 0 {
					ref = slices.Delete(ref, i, i+1)
				}
			}
			if s.Len() != len(ref) || !slices.Equal(contents(&s), ref) {
				t.Fatalf("trial %d op %d: store %v, want %v", trial, op, contents(&s), ref)
			}
		}
		raw := saveStore(t, &s)
		var back Store[stamp]
		if err := loadStore(t, raw, &back); err != nil {
			t.Fatalf("trial %d: Load: %v", trial, err)
		}
		if !slices.Equal(contents(&back), ref) {
			t.Fatalf("trial %d: loaded %v, want %v", trial, contents(&back), ref)
		}
		if again := saveStore(t, &back); !bytes.Equal(again, raw) {
			t.Fatalf("trial %d: re-save differs", trial)
		}
	}
}

// A body whose times decrease would break the binary search behind
// EvictBefore and EachInRange: Load reports it corrupt.
func TestStoreLoadRejectsDecreasingTimes(t *testing.T) {
	enc := snapshot.NewEncoder()
	enc.Uvarint(3)
	for _, s := range []stamp{{stream.TS(time.Second), 1}, {stream.TS(time.Second), 2}, {0, 3}} {
		saveStamp(enc, s)
	}
	raw, err := enc.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	var s Store[stamp]
	if err := loadStore(t, raw, &s); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("Load = %v, want ErrCorrupt", err)
	}
}

// A nil tuple is not a TimeBuffer element.
func TestLoadTupleRejectsNil(t *testing.T) {
	enc := snapshot.NewEncoder()
	enc.Uvarint(1)
	enc.Tuple(nil)
	raw, err := enc.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := snapshot.NewDecoderBytes(raw, func(string) (*stream.Schema, bool) { return nil, false })
	if err != nil {
		t.Fatal(err)
	}
	var b TimeBuffer
	if err := b.Load(dec, LoadTuple); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("Load = %v, want ErrCorrupt", err)
	}
}
