package window

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/stream"
)

var sch = stream.MustSchema("s", stream.Field{Name: "tag"})

func at(d time.Duration, tag string) *stream.Tuple {
	return stream.MustTuple(sch, stream.TS(d), stream.Str(tag))
}

// mustAdd is Add for in-order test data; ordering errors fail the test.
func mustAdd(t *testing.T, b *TimeBuffer, tu *stream.Tuple) {
	t.Helper()
	if err := b.Add(tu); err != nil {
		t.Fatalf("Add(%s): %v", tu.TS, err)
	}
}

// tuples lists a buffer's contents oldest-first.
func tuples(b *TimeBuffer) []*stream.Tuple {
	var out []*stream.Tuple
	b.Each(func(tu *stream.Tuple) bool { out = append(out, tu); return true })
	return out
}

// times lists a buffer's timestamps oldest-first.
func times(b *TimeBuffer) []stream.Timestamp {
	var out []stream.Timestamp
	for _, tu := range tuples(b) {
		out = append(out, tu.TS)
	}
	return out
}

func TestTimeBufferEvictAndRange(t *testing.T) {
	var b TimeBuffer
	for i := 0; i < 10; i++ {
		mustAdd(t, &b, at(time.Duration(i)*time.Second, "t"))
	}
	if b.Len() != 10 {
		t.Fatalf("Len = %d", b.Len())
	}
	if n := b.EvictBefore(stream.TS(4 * time.Second)); n != 4 {
		t.Fatalf("evicted %d, want 4", n)
	}
	if got := times(&b); len(got) != 6 || got[0] != stream.TS(4*time.Second) || got[5] != stream.TS(9*time.Second) {
		t.Fatalf("post-evict state wrong: %v", got)
	}
	var seen []stream.Timestamp
	b.EachInRange(stream.TS(5*time.Second), stream.TS(7*time.Second), func(tu *stream.Tuple) bool {
		seen = append(seen, tu.TS)
		return true
	})
	if len(seen) != 3 || seen[0] != stream.TS(5*time.Second) || seen[2] != stream.TS(7*time.Second) {
		t.Errorf("range scan = %v", seen)
	}
	// Early stop.
	count := 0
	b.Each(func(*stream.Tuple) bool { count++; return count < 2 })
	if count != 2 {
		t.Errorf("Each early stop visited %d", count)
	}
	// Early stop inside a range.
	count = 0
	b.EachInRange(stream.TS(5*time.Second), stream.TS(9*time.Second), func(*stream.Tuple) bool { count++; return false })
	if count != 1 {
		t.Errorf("EachInRange early stop visited %d", count)
	}
}

func TestTimeBufferRemoveAndClear(t *testing.T) {
	var b TimeBuffer
	t1, t2, t3 := at(1*time.Second, "a"), at(2*time.Second, "b"), at(3*time.Second, "c")
	mustAdd(t, &b, t1)
	mustAdd(t, &b, t2)
	mustAdd(t, &b, t3)
	is := func(x *stream.Tuple) func(*stream.Tuple) bool {
		return func(y *stream.Tuple) bool { return y == x }
	}
	if !b.Remove(is(t2)) {
		t.Fatal("Remove(t2) failed")
	}
	if b.Remove(is(t2)) {
		t.Fatal("double Remove should fail")
	}
	if got := tuples(&b); len(got) != 2 || got[0] != t1 || got[1] != t3 {
		t.Fatal("buffer corrupted after Remove")
	}
	b.Drop(b.Len())
	if b.Len() != 0 || len(tuples(&b)) != 0 {
		t.Fatal("Drop of every element failed")
	}
}

func TestTimeBufferOutOfOrderAddRejected(t *testing.T) {
	var b TimeBuffer
	mustAdd(t, &b, at(2*time.Second, "a"))
	err := b.Add(at(1*time.Second, "b"))
	if !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("err = %v, want ErrOutOfOrder", err)
	}
	if b.Len() != 1 {
		t.Fatalf("rejected add must not mutate the buffer: Len = %d", b.Len())
	}
	// Equal timestamps are in order (ties broken upstream by Seq).
	if err := b.Add(at(2*time.Second, "c")); err != nil {
		t.Fatalf("same-instant add rejected: %v", err)
	}
}

// Property: after any interleaving of adds (ordered) and evictions, the
// buffer retains exactly the tuples with TS >= the max eviction watermark.
func TestTimeBufferEvictionInvariant(t *testing.T) {
	f := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var b TimeBuffer
		var live []*stream.Tuple
		ts := time.Duration(0)
		wm := stream.MinTimestamp
		for i := 0; i < int(nOps); i++ {
			if rng.Intn(3) < 2 {
				ts += time.Duration(rng.Intn(1000)) * time.Millisecond
				tu := at(ts, "x")
				if b.Add(tu) != nil {
					return false
				}
				live = append(live, tu)
			} else {
				cut := stream.TS(time.Duration(rng.Int63n(int64(ts + 1))))
				if cut > wm {
					wm = cut
				}
				b.EvictBefore(cut)
				kept := live[:0]
				for _, tu := range live {
					if tu.TS >= cut {
						kept = append(kept, tu)
					}
				}
				live = kept
			}
		}
		if b.Len() != len(live) {
			return false
		}
		i := 0
		ok := true
		b.Each(func(tu *stream.Tuple) bool {
			if tu != live[i] {
				ok = false
				return false
			}
			i++
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestTimeBufferBinarySearchCut cross-checks the binary-searched eviction
// cut against a reference linear scan across duplicate-heavy timelines and
// cut positions (before, between, on, and past every retained timestamp).
func TestTimeBufferBinarySearchCut(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		b := &TimeBuffer{}
		var ref []*stream.Tuple
		ts := time.Duration(0)
		n := rng.Intn(40)
		for i := 0; i < n; i++ {
			if rng.Intn(3) > 0 { // duplicates stay likely
				ts += time.Duration(rng.Intn(3)) * time.Second
			}
			tp := at(ts, "x")
			mustAdd(t, b, tp)
			ref = append(ref, tp)
		}
		for probe := 0; probe < 8; probe++ {
			cut := stream.TS(time.Duration(rng.Intn(int(ts/time.Second)+3)) * time.Second)
			want := 0
			for want < len(ref) && ref[want].TS < cut {
				want++
			}
			got := b.EvictBefore(cut)
			if got != want {
				t.Fatalf("trial %d: EvictBefore(%s) dropped %d, want %d", trial, cut, got, want)
			}
			ref = ref[want:]
			if b.Len() != len(ref) {
				t.Fatalf("trial %d: Len = %d, want %d", trial, b.Len(), len(ref))
			}
			if len(ref) > 0 && tuples(b)[0] != ref[0] {
				t.Fatalf("trial %d: oldest mismatch after cut at %s", trial, cut)
			}
		}
	}
}

// TestTimeBufferEvictAtDuplicateBoundary pins the strict-inequality contract:
// tuples exactly at the cut survive, including when several share it.
func TestTimeBufferEvictAtDuplicateBoundary(t *testing.T) {
	b := &TimeBuffer{}
	for _, d := range []time.Duration{0, time.Second, time.Second, time.Second, 2 * time.Second} {
		mustAdd(t, b, at(d, "x"))
	}
	if n := b.EvictBefore(stream.TS(time.Second)); n != 1 {
		t.Fatalf("dropped %d, want 1", n)
	}
	if got := times(b); len(got) != 4 || got[0] != stream.TS(time.Second) {
		t.Fatalf("kept %v", got)
	}
	if n := b.EvictBefore(stream.TS(3 * time.Second)); n != 4 {
		t.Fatalf("dropped %d, want 4", n)
	}
	if b.Len() != 0 {
		t.Fatalf("kept %d, want 0", b.Len())
	}
}
