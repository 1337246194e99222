package shard

// The shared feed side, driven directly: the heartbeat regimes of Split
// (partition 0's clock coalesced or exact, crossed with the keepalive
// flag — the sharded engine flushes with keepalive, the cluster client's
// size-triggered flushes without), allocation-free splitting into reused
// runs, and the front-door rejections the sharded engine used to miss.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/esl"
	"repro/internal/stream"
)

const ex6SEQ = `
	SELECT C1.tagid, C4.tagtime FROM C1, C2, C3, C4
	WHERE SEQ(C1, C2, C3, C4)
	AND C1.tagid=C2.tagid AND C1.tagid=C3.tagid AND C1.tagid=C4.tagid`

const theftSQL = `
	SELECT item.tagid
	FROM tag_readings AS item
	WHERE item.tagtype = 'item' AND NOT EXISTS
	  (SELECT * FROM tag_readings AS person
	   OVER [1 MINUTES PRECEDING AND FOLLOWING item]
	   WHERE person.tagtype = 'person')`

// planFront builds a four-partition Front placed by the queries registered
// on a planning engine, with no owner gates: Admit offers directly and
// nothing flushes until the test splits.
func planFront(t *testing.T, queries ...string) (*Front, *esl.Engine) {
	t.Helper()
	plan := esl.New()
	if _, err := plan.Exec(qcDDL + `
		CREATE STREAM tag_readings(tagid, tagtype, tagtime);`); err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		if _, err := plan.RegisterQuery(fmt.Sprintf("q%d", i), q, nil); err != nil {
			t.Fatal(err)
		}
	}
	f := NewFront(FrontConfig{
		Name:       "test",
		Partitions: 4,
		BatchSize:  1 << 20,
		Lock:       new(sync.Mutex),
		Resolve:    plan.StreamSchema,
		Partition:  func(h uint64) int { return int(h % 4) },
		Admit: func(items []stream.Item, offer func([]stream.Item) error) error {
			return offer(items)
		},
		Flush: func() error { return nil },
	})
	f.Place(ComputePlacement(plan, nil))
	return f, plan
}

// splitC1 offers n keyed C1 tuples with strictly increasing timestamps and
// splits them into fresh runs, returning the runs plus the count of tuples
// that landed off partition 0.
func splitC1(t *testing.T, f *Front, plan *esl.Engine, n int, keepalive bool) (runs [][]stream.Item, foreign int) {
	t.Helper()
	schema, _ := plan.StreamSchema("C1")
	for i := 0; i < n; i++ {
		tp := stream.MustTuple(schema, sec(i+1),
			stream.Str("r1"), stream.Str(fmt.Sprintf("tag%02d", i)), stream.Time(sec(i+1)))
		if err := f.PushTuple("C1", tp); err != nil {
			t.Fatal(err)
		}
	}
	runs = make([][]stream.Item, f.cfg.Partitions)
	f.Split(runs, keepalive)
	for s := 1; s < len(runs); s++ {
		for _, it := range runs[s] {
			if !it.IsHeartbeat() {
				foreign++
			}
		}
	}
	return runs, foreign
}

func countBeats(items []stream.Item) int {
	n := 0
	for _, it := range items {
		if it.IsHeartbeat() {
			n++
		}
	}
	return n
}

// TestShard0ClockCoalesced: with no time-sensitive pinned query the
// per-foreign-tuple beats coalesce into at most one trailing high-water
// beat per partition. Under keepalive every partition ends on it; without,
// a partition whose own tuples advanced its clock gets none.
func TestShard0ClockCoalesced(t *testing.T) {
	for _, keepalive := range []bool{true, false} {
		t.Run(fmt.Sprintf("keepalive=%v", keepalive), func(t *testing.T) {
			f, plan := planFront(t, ex6SEQ)
			if f.exactClock {
				t.Fatal("keyed SEQ must not force the exact clock")
			}
			runs, foreign := splitC1(t, f, plan, 32, keepalive)
			if foreign == 0 {
				t.Fatal("expected keyed routing to use partitions other than 0")
			}
			for s, run := range runs {
				beats := countBeats(run)
				if beats > 1 {
					t.Fatalf("partition %d beats = %d, want <= 1 (coalesced)", s, beats)
				}
				// A run already ending at the high water needs no beat.
				if last := run[len(run)-1].TS; (keepalive || len(run) == beats) && last != sec(32) {
					t.Fatalf("partition %d ends at %v, want the high water %v", s, last, sec(32))
				}
				if !keepalive && len(run) > beats && beats != 0 {
					t.Fatalf("partition %d got a trailing beat without keepalive", s)
				}
			}
		})
	}
}

// TestShard0ClockExact: a time-sensitive pinned query (a deferred FOLLOWING
// window) gives partition 0 one beat per tuple routed elsewhere, keepalive
// or not.
func TestShard0ClockExact(t *testing.T) {
	for _, keepalive := range []bool{true, false} {
		t.Run(fmt.Sprintf("keepalive=%v", keepalive), func(t *testing.T) {
			f, plan := planFront(t, ex6SEQ, theftSQL)
			if !f.exactClock {
				t.Fatal("deferred FOLLOWING window must force the exact clock")
			}
			runs, foreign := splitC1(t, f, plan, 32, keepalive)
			// Timestamps are strictly increasing, so nothing collapses.
			if got := countBeats(runs[0]); got != foreign {
				t.Fatalf("partition-0 beats = %d, want one per foreign tuple (%d)", got, foreign)
			}
		})
	}
}

// TestShard0ClockRegimeFlip: registration of a time-sensitive query after
// data has flowed flips the sharded engine's regime for later flushes.
func TestShard0ClockRegimeFlip(t *testing.T) {
	e := New(2)
	defer e.Close()
	if _, err := e.Exec(qcDDL + `
		CREATE STREAM tag_readings(tagid, tagtype, tagtime);`); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RegisterQuery("ex6", ex6SEQ, func(Row) {}); err != nil {
		t.Fatal(err)
	}
	if err := e.Push("C1", sec(1), stream.Str("r1"), stream.Str("a"), stream.Time(sec(1))); err != nil {
		t.Fatal(err)
	}
	if e.front.exactClock {
		t.Fatal("premature exact clock")
	}
	if _, err := e.RegisterQuery("theft", theftSQL, func(Row) {}); err != nil {
		t.Fatal(err)
	}
	if !e.front.exactClock {
		t.Fatal("exact clock not enabled by registration")
	}
}

// TestSplitIntoReusedRunsAllocs: once the caller's runs have grown,
// splitting a pending batch into them — the cluster client's flush —
// allocates nothing, in either clock regime and either keepalive mode.
func TestSplitIntoReusedRunsAllocs(t *testing.T) {
	for _, exact := range []bool{false, true} {
		queries := []string{ex6SEQ}
		if exact {
			queries = append(queries, theftSQL)
		}
		f, plan := planFront(t, queries...)
		schema, _ := plan.StreamSchema("c1")
		var items []stream.Item
		for i := 0; i < 64; i++ {
			items = append(items, stream.Of(stream.MustTuple(schema, sec(i+1),
				stream.Str("r1"), stream.Str(fmt.Sprintf("tag%02d", i)), stream.Time(sec(i+1)))))
			if i%16 == 15 {
				items = append(items, stream.Heartbeat(sec(i+1)))
			}
		}
		if err := f.offer(items); err != nil {
			t.Fatal(err)
		}
		pending := append([]stream.Item(nil), f.pending...)
		parts := append([]int(nil), f.parts...)
		runs := make([][]stream.Item, f.cfg.Partitions)
		for _, keepalive := range []bool{true, false} {
			split := func() {
				f.pending = append(f.pending[:0], pending...)
				f.parts = append(f.parts[:0], parts...)
				f.Split(runs, keepalive)
			}
			split() // grow the runs
			if n := testing.AllocsPerRun(100, split); n != 0 {
				t.Errorf("exact=%v keepalive=%v: split allocates %.1f times per batch, want 0", exact, keepalive, n)
			}
		}
	}
}

// TestUndeclaredStreamRejected: a tuple of a stream no replica declares is
// rejected at the front door, as the serial engine rejects it, instead of
// reaching shard 0 and poisoning its worker for every later item — also
// behind an ingest boundary, where it must not be held for later release.
func TestUndeclaredStreamRejected(t *testing.T) {
	for _, slack := range []time.Duration{0, time.Second} {
		e := New(2, esl.WithSlack(slack))
		if _, err := e.Exec(`CREATE STREAM r(a, n);`); err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		rows := 0
		if _, err := e.RegisterQuery("q", `SELECT a, n FROM r`, func(Row) { mu.Lock(); rows++; mu.Unlock() }); err != nil {
			t.Fatal(err)
		}
		ghost := stream.MustTuple(stream.MustSchema("ghost", stream.Field{Name: "a"}), sec(1), stream.Str("x"))
		if err := e.PushTuple("ghost", ghost); err == nil {
			t.Fatalf("slack %v: PushTuple of an undeclared stream accepted", slack)
		}
		if err := e.PushBatch([]stream.Item{stream.Of(ghost)}); err == nil {
			t.Fatalf("slack %v: PushBatch of an undeclared stream accepted", slack)
		}
		for i := 0; i < 8; i++ {
			if err := e.Push("r", sec(i+2), stream.Str(fmt.Sprintf("k%d", i)), stream.Int(int64(i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Close(); err != nil {
			t.Fatalf("slack %v: Close after a rejected push: %v", slack, err)
		}
		if rows != 8 {
			t.Fatalf("slack %v: rows = %d, want 8", slack, rows)
		}
	}
}

// TestMalformedPushDeadLettered: behind an ingest boundary a Push whose
// values do not fit the schema is dead-lettered as MALFORMED and returns
// nil, as on the serial engine; without a boundary it is an error.
func TestMalformedPushDeadLettered(t *testing.T) {
	e := New(2, esl.WithSlack(time.Second))
	defer e.Close()
	if _, err := e.Exec(`CREATE STREAM r(a, n);`); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var dead []stream.DeadLetter
	e.OnDeadLetter(func(dl stream.DeadLetter) { mu.Lock(); dead = append(dead, dl); mu.Unlock() })
	if err := e.Push("r", sec(1), stream.Str("only-one")); err != nil {
		t.Fatalf("malformed Push behind slack: err = %v, want nil", err)
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if len(dead) != 1 || dead[0].Reason != stream.DeadMalformed {
		t.Fatalf("dead letters = %v, want one MALFORMED", dead)
	}
	if st := e.EngineStats(); st.DeadLettered != 1 || st.Ingested != 1 {
		t.Fatalf("stats: %+v", st)
	}

	strict := New(2)
	defer strict.Close()
	if _, err := strict.Exec(`CREATE STREAM r(a, n);`); err != nil {
		t.Fatal(err)
	}
	if err := strict.Push("r", sec(1), stream.Str("only-one")); err == nil {
		t.Fatal("malformed Push without a boundary accepted")
	}
}
