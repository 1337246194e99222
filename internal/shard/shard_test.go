package shard

// White-box tests of the sharding machinery itself: route derivation,
// actual cross-shard distribution, the fan-in's merge order, and
// lifecycle/error behavior.

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/stream"
)

func routesOf(e *Engine) map[string]Route {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := map[string]Route{}
	for k, v := range e.front.routes {
		out[k] = v
	}
	return out
}

func TestRoutingKeyedSEQ(t *testing.T) {
	e := New(4)
	defer e.Close()
	if _, err := e.Exec(qcDDL); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RegisterQuery("q", `
		SELECT C1.tagid FROM C1, C2, C3, C4
		WHERE SEQ(C1, C2, C3, C4)
		AND C1.tagid=C2.tagid AND C1.tagid=C3.tagid AND C1.tagid=C4.tagid`,
		func(Row) {}); err != nil {
		t.Fatal(err)
	}
	routes := routesOf(e)
	for _, s := range []string{"c1", "c2", "c3", "c4"} {
		rt, ok := routes[s]
		if !ok || rt.Mode != RouteKeyed {
			t.Errorf("%s: route = %+v, want keyed", s, rt)
		}
		if rt.KeyPos != 1 { // tagid is column 1
			t.Errorf("%s: keyPos = %d, want 1", s, rt.KeyPos)
		}
	}
}

func TestRoutingPinnedStar(t *testing.T) {
	e := New(4)
	defer e.Close()
	if _, err := e.Exec(`
		CREATE STREAM R1(readerid, tagid, tagtime);
		CREATE STREAM R2(readerid, tagid, tagtime);`); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RegisterQuery("q", `
		SELECT COUNT(R1*), R2.tagid FROM R1, R2
		WHERE SEQ(R1*, R2) MODE CHRONICLE
		AND R2.tagtime - LAST(R1*).tagtime <= 5 SECONDS`,
		func(Row) {}); err != nil {
		t.Fatal(err)
	}
	routes := routesOf(e)
	for _, s := range []string{"r1", "r2"} {
		if rt := routes[s]; rt.Mode != RoutePinned {
			t.Errorf("%s: route = %+v, want pinned", s, rt)
		}
	}
}

// TestRoutingKeyConflict: two keyed queries demanding different key columns
// on one stream force it (and the queries reading it) onto shard 0.
func TestRoutingKeyConflict(t *testing.T) {
	e := New(4)
	defer e.Close()
	if _, err := e.Exec(`
		CREATE STREAM S1(a, b, tagtime);
		CREATE STREAM S2(a, b, tagtime);`); err != nil {
		t.Fatal(err)
	}
	reg := func(sql string) {
		t.Helper()
		if _, err := e.RegisterQuery("q", sql, func(Row) {}); err != nil {
			t.Fatal(err)
		}
	}
	reg(`SELECT S1.a FROM S1, S2 WHERE SEQ(S1, S2) AND S1.a = S2.a`)
	if rt := routesOf(e)["s1"]; rt.Mode != RouteKeyed {
		t.Fatalf("single keyed query: s1 route = %+v, want keyed", rt)
	}
	reg(`SELECT S1.b FROM S1, S2 WHERE SEQ(S1, S2) AND S1.b = S2.b`)
	routes := routesOf(e)
	for _, s := range []string{"s1", "s2"} {
		if rt := routes[s]; rt.Mode != RoutePinned {
			t.Errorf("conflicting keys: %s route = %+v, want pinned", s, rt)
		}
	}
}

func TestRoutingFreeStateless(t *testing.T) {
	e := New(2)
	defer e.Close()
	if _, err := e.Exec(`CREATE STREAM readings(reader_id, tag_id, read_time);`); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RegisterQuery("q", `SELECT tag_id FROM readings WHERE tag_id LIKE 'a%'`,
		func(Row) {}); err != nil {
		t.Fatal(err)
	}
	if rt := routesOf(e)["readings"]; rt.Mode != RouteFree {
		t.Fatalf("readings route = %+v, want free", rt)
	}
}

// TestKeyedWorkDistributes proves the keyed path actually parallelizes:
// with many tags on 4 shards, more than one replica must emit matches.
func TestKeyedWorkDistributes(t *testing.T) {
	e := New(4)
	defer e.Close()
	if _, err := e.Exec(qcDDL); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	n := 0
	if _, err := e.RegisterQuery("q", `
		SELECT C1.tagid FROM C1, C2, C3, C4
		WHERE SEQ(C1, C2, C3, C4)
		AND C1.tagid=C2.tagid AND C1.tagid=C3.tagid AND C1.tagid=C4.tagid`,
		func(Row) { mu.Lock(); n++; mu.Unlock() }); err != nil {
		t.Fatal(err)
	}
	at := 0
	for _, stn := range []string{"C1", "C2", "C3", "C4"} {
		for i := 0; i < 16; i++ {
			at++
			tag := "tag-" + strings.Repeat("x", i%4) + string(rune('a'+i))
			if err := e.Push(stn, sec(at), stream.Str(stn), stream.Str(tag), stream.Null); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if n != 16 {
		t.Fatalf("merged matches = %d, want 16", n)
	}
	busy := 0
	for _, r := range e.replicas {
		if st := r.Stats(); len(st) > 0 && st[0].Emitted > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("only %d replica(s) emitted matches; keyed routing did not distribute", busy)
	}
}

func eventAt(ev Event) stream.Timestamp { return ev.TS }

// TestCombinerMergeOrder drives the shared output fan-in directly: events
// buffered from two shards must release in timestamp order gated by the
// slower shard's watermark.
func TestCombinerMergeOrder(t *testing.T) {
	var got []stream.Timestamp
	c := stream.NewFanIn(2, fanInBuffer, eventBefore, eventAt, func(ev Event) { got = append(got, ev.TS) })
	ev := func(ts int, seq uint64) Event {
		return Event{TS: stream.Timestamp(ts), Seq: seq}
	}
	// Shard 0 is ahead: nothing releases until shard 1's watermark catches up.
	c.Offer(0, []Event{ev(10, 1), ev(30, 2)}, 40)
	if len(got) != 0 {
		t.Fatalf("released %v before slow shard reported", got)
	}
	c.Offer(1, []Event{ev(20, 1)}, 25)
	if want := []stream.Timestamp{10, 20}; len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("after wm 25: released %v, want %v", got, want)
	}
	c.Offer(1, nil, 100)
	if len(got) != 3 || got[2] != 30 {
		t.Fatalf("after wm 100: released %v, want [10 20 30]", got)
	}
	c.FlushAll()
	if len(got) != 3 {
		t.Fatalf("flushAll re-delivered: %v", got)
	}
}

// TestCombinerBufferBound: past its buffer bound the fan-in releases the
// oldest events even though a shard's watermark lags (bounded memory beats
// perfect order).
func TestCombinerBufferBound(t *testing.T) {
	released := 0
	c := stream.NewFanIn(2, 8, eventBefore, eventAt, func(Event) { released++ })
	evs := make([]Event, 10)
	for i := range evs {
		evs[i] = Event{TS: stream.Timestamp(i), Seq: uint64(i)}
	}
	c.Offer(0, evs, 100) // shard 1's watermark still MinTimestamp
	if released == 0 {
		t.Fatal("buffer bound did not force release")
	}
}

func TestOutOfOrderRejected(t *testing.T) {
	e := New(2)
	defer e.Close()
	if _, err := e.Exec(`CREATE STREAM s(a);`); err != nil {
		t.Fatal(err)
	}
	if err := e.Push("s", sec(10), stream.Str("x")); err != nil {
		t.Fatal(err)
	}
	if err := e.Push("s", sec(5), stream.Str("y")); err == nil {
		t.Fatal("out-of-order push accepted")
	}
}

// TestStickyWorkerError: an ingestion failure inside a worker surfaces at
// the next barrier (Drain) instead of being lost. A query cycle (a -> b ->
// a) passes the front door and fails inside shard 0's replica, where the
// derived-stream recursion cap stops it.
func TestStickyWorkerError(t *testing.T) {
	e := New(2)
	defer e.Close()
	if _, err := e.Exec(`
		CREATE STREAM a(x, ts);
		CREATE STREAM b(x, ts);
		INSERT INTO b SELECT x, ts FROM a;
		INSERT INTO a SELECT x, ts FROM b;`); err != nil {
		t.Fatal(err)
	}
	if err := e.Push("a", sec(1), stream.Int(1), stream.Time(sec(1))); err != nil {
		t.Fatal(err) // buffered; the replica fails at flush
	}
	if err := e.Drain(); err == nil || !strings.Contains(err.Error(), "recursion") {
		t.Fatalf("Drain did not surface the worker's ingestion error: %v", err)
	}
}

func TestCloseIdempotentAndRejecting(t *testing.T) {
	e := New(2)
	if _, err := e.Exec(`CREATE STREAM s(a);`); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := e.Push("s", sec(1), stream.Str("x")); err == nil {
		t.Fatal("push after Close accepted")
	}
	if _, err := e.Exec(`CREATE STREAM t(a);`); err == nil {
		t.Fatal("Exec after Close accepted")
	}
}

// TestHeartbeatBroadcast: punctuation reaches every shard — a windowed
// query's expirations fire from a heartbeat alone on whatever shard holds
// the partial match.
func TestHeartbeatBroadcast(t *testing.T) {
	e := New(4)
	defer e.Close()
	if _, err := e.Exec(qcDDL); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	n := 0
	if _, err := e.RegisterQuery("q", `
		SELECT C1.tagid FROM C1, C2, C3, C4
		WHERE SEQ(C1, C2, C3, C4)
		OVER [30 MINUTES PRECEDING C4]
		AND C1.tagid=C2.tagid AND C1.tagid=C3.tagid AND C1.tagid=C4.tagid`,
		func(Row) { mu.Lock(); n++; mu.Unlock() }); err != nil {
		t.Fatal(err)
	}
	for i, stn := range []string{"C1", "C2", "C3"} {
		if err := e.Push(stn, sec(i+1), stream.Str(stn), stream.Str("tag"), stream.Null); err != nil {
			t.Fatal(err)
		}
	}
	// Push the window far past, then complete the sequence: expired.
	if err := e.Heartbeat(stream.TS(2 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	if err := e.Push("C4", stream.TS(2*time.Hour+time.Second),
		stream.Str("C4"), stream.Str("tag"), stream.Null); err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("expired sequence matched %d times after heartbeat", n)
	}
}
