package esl

// Batch-vs-serial equivalence: every scenario is driven twice — once
// tuple-at-a-time through Push/Heartbeat, once through PushBatch at several
// batch sizes — and each sink's output must match row-for-row, in order.
// This is the oracle for the vectorized execution path: fused kernels,
// batched NFA feeding, coalesced heartbeats and deferred advance must all
// be unobservable per sink.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/stream"
)

// bqEvt is one abstract feed event, instantiated per engine (tuples cannot
// be shared: engines stamp sequence numbers and retain them).
type bqEvt struct {
	hb   bool
	ts   stream.Timestamp
	name string
	vals []stream.Value
}

func bqTup(name string, ts stream.Timestamp, vals ...stream.Value) bqEvt {
	return bqEvt{name: name, ts: ts, vals: vals}
}

func bqBeat(ts stream.Timestamp) bqEvt { return bqEvt{hb: true, ts: ts} }

func bqSec(d int) stream.Timestamp { return stream.TS(time.Duration(d) * time.Second) }
func bqMs(d int) stream.Timestamp  { return stream.TS(time.Duration(d) * time.Millisecond) }

// bqScenario sets up an engine (DDL, queries, subscriptions that record via
// rec) plus the event feed; after runs post-feed checks (snapshots).
type bqScenario struct {
	setup func(t *testing.T, e *Engine, rec func(tag, line string))
	after func(t *testing.T, e *Engine, rec func(tag, line string))
	evts  []bqEvt
	// sensitive asserts the engine's time-sensitivity classification.
	sensitive bool
}

func bqRowLine(r Row) string { return fmt.Sprintf("%v@%d%v", r.Names, r.TS, r.Vals) }

func bqTupLine(t *stream.Tuple) string {
	return fmt.Sprintf("%s@%d%v", t.Schema.Name(), t.TS, t.Vals)
}

func bqRecorder() (map[string][]string, func(tag, line string)) {
	m := map[string][]string{}
	return m, func(tag, line string) { m[tag] = append(m[tag], line) }
}

func bqItems(t *testing.T, e *Engine, evts []bqEvt) []stream.Item {
	t.Helper()
	items := make([]stream.Item, 0, len(evts))
	for _, ev := range evts {
		if ev.hb {
			items = append(items, stream.Heartbeat(ev.ts))
			continue
		}
		schema, ok := e.StreamSchema(ev.name)
		if !ok {
			t.Fatalf("unknown stream %s", ev.name)
		}
		tp, err := stream.NewTuple(schema, ev.ts, ev.vals...)
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, stream.Of(tp))
	}
	return items
}

func bqRunSerial(t *testing.T, sc bqScenario) map[string][]string {
	t.Helper()
	e := New()
	want, rec := bqRecorder()
	sc.setup(t, e, rec)
	if e.TimeSensitive() != sc.sensitive {
		t.Fatalf("TimeSensitive = %v, scenario declares %v", e.TimeSensitive(), sc.sensitive)
	}
	for _, ev := range sc.evts {
		var err error
		if ev.hb {
			err = e.Heartbeat(ev.ts)
		} else {
			err = e.Push(ev.name, ev.ts, ev.vals...)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if sc.after != nil {
		sc.after(t, e, rec)
	}
	return want
}

// runBatchEquiv drives the scenario serially, then through PushBatch at
// batch sizes 1, 7 and 256, comparing every sink's ordered row sequence.
func runBatchEquiv(t *testing.T, sc bqScenario) {
	t.Helper()
	want := bqRunSerial(t, sc)
	for _, size := range []int{1, 7, 256} {
		t.Run(fmt.Sprintf("batch=%d", size), func(t *testing.T) {
			e := New()
			got, rec := bqRecorder()
			sc.setup(t, e, rec)
			items := bqItems(t, e, sc.evts)
			for i := 0; i < len(items); i += size {
				j := i + size
				if j > len(items) {
					j = len(items)
				}
				if err := e.PushBatch(items[i:j]); err != nil {
					t.Fatal(err)
				}
			}
			if sc.after != nil {
				sc.after(t, e, rec)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("diverged:\nbatch:  %v\nserial: %v", got, want)
			}
		})
	}
}

func bqRegister(t *testing.T, e *Engine, sql, tag string, rec func(tag, line string)) {
	t.Helper()
	if _, err := e.RegisterQuery(tag, sql, func(r Row) { rec(tag, bqRowLine(r)) }); err != nil {
		t.Fatal(err)
	}
}

func bqExec(t *testing.T, e *Engine, script string) {
	t.Helper()
	if _, err := e.Exec(script); err != nil {
		t.Fatal(err)
	}
}

func bqSubscribe(t *testing.T, e *Engine, name, tag string, rec func(tag, line string)) {
	t.Helper()
	if err := e.Subscribe(name, func(tp *stream.Tuple) { rec(tag, bqTupLine(tp)) }); err != nil {
		t.Fatal(err)
	}
}

const bqQCDDL = `
	CREATE STREAM C1(readerid, tagid, tagtime);
	CREATE STREAM C2(readerid, tagid, tagtime);
	CREATE STREAM C3(readerid, tagid, tagtime);
	CREATE STREAM C4(readerid, tagid, tagtime);`

// bqQCFeed builds the Example 6 supply-chain feed: four checkpoint waves
// with a skipped read, a duplicate read, and heartbeats between waves.
func bqQCFeed() []bqEvt {
	var evts []bqEvt
	tags := []string{"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"}
	at := 0
	push := func(stn, tag string) {
		at++
		evts = append(evts, bqTup(stn, bqSec(at), stream.Str(stn), stream.Str(tag), stream.Time(bqSec(at))))
	}
	for _, stn := range []string{"C1", "C2", "C3", "C4"} {
		for i, tag := range tags {
			if stn == "C3" && i == 2 {
				continue // t2 skips C3: no match
			}
			push(stn, tag)
			if stn == "C2" && i == 5 {
				push(stn, tag) // duplicate C2 read for t5
			}
		}
		// Heartbeat between waves (coalesced on the batched path).
		at++
		evts = append(evts, bqBeat(bqSec(at)))
	}
	// A second full wave for two tags, out of phase.
	for _, stn := range []string{"C1", "C2", "C3", "C4"} {
		push(stn, "t0")
		push(stn, "t7")
	}
	return evts
}

const bqEx6SQL = `
	SELECT C1.tagid, C1.tagtime, C2.tagtime, C3.tagtime, C4.tagtime
	FROM C1, C2, C3, C4
	WHERE SEQ(C1, C2, C3, C4)
	AND C1.tagid=C2.tagid AND C1.tagid=C3.tagid
	AND C1.tagid=C4.tagid`

// TestBatchEquivExample6SEQ: the keyed SEQ of Example 6 with a callback
// sink — a silent reader, fed its runs whole.
func TestBatchEquivExample6SEQ(t *testing.T) {
	runBatchEquiv(t, bqScenario{
		evts: bqQCFeed(),
		setup: func(t *testing.T, e *Engine, rec func(tag, line string)) {
			bqExec(t, e, bqQCDDL)
			bqRegister(t, e, bqEx6SQL, "ex6", rec)
		},
	})
}

// TestBatchEquivExample6Derived: the same SEQ writing a derived stream — a
// non-silent reader, which must keep the serial push/emit interleaving
// (derived tuples re-enter the engine mid-run).
func TestBatchEquivExample6Derived(t *testing.T) {
	runBatchEquiv(t, bqScenario{
		evts: bqQCFeed(),
		setup: func(t *testing.T, e *Engine, rec func(tag, line string)) {
			bqExec(t, e, bqQCDDL)
			bqExec(t, e, `INSERT INTO completions `+bqEx6SQL)
			bqSubscribe(t, e, "completions", "done", rec)
			// A second query consumes the derived stream, so batch ingestion
			// exercises the derived re-entry path end to end.
			bqRegister(t, e, `SELECT tagid FROM completions`, "echo", rec)
		},
	})
}

// TestBatchEquivModesWalkthrough: the §3.1.1 walkthrough under all four
// pairing modes at once — four silent readers of the same streams, the
// multi-reader vectorization case.
func TestBatchEquivModesWalkthrough(t *testing.T) {
	var evts []bqEvt
	at := 0
	for rep := 0; rep < 3; rep++ {
		for _, stn := range []string{"C1", "C1", "C2", "C3", "C3", "C2", "C4"} {
			for _, tag := range []string{"a", "b", "c"} {
				at++
				evts = append(evts, bqTup(stn, bqSec(at), stream.Str(stn), stream.Str(tag), stream.Time(bqSec(at))))
			}
		}
	}
	runBatchEquiv(t, bqScenario{
		evts: evts,
		setup: func(t *testing.T, e *Engine, rec func(tag, line string)) {
			bqExec(t, e, bqQCDDL)
			for _, mode := range []string{"UNRESTRICTED", "RECENT", "CHRONICLE", "CONSECUTIVE"} {
				bqRegister(t, e, fmt.Sprintf(`
					SELECT C1.tagid, C1.tagtime, C4.tagtime
					FROM C1, C2, C3, C4
					WHERE SEQ(C1, C2, C3, C4)
					OVER [30 MINUTES PRECEDING C4] MODE %s
					AND C1.tagid=C2.tagid AND C1.tagid=C3.tagid
					AND C1.tagid=C4.tagid`, mode), mode, rec)
			}
		},
	})
}

// TestBatchEquivExample7Containment: the star-sequence containment query
// (Figure 1) with star aggregates and the previous-operator gap bound.
func TestBatchEquivExample7Containment(t *testing.T) {
	var evts []bqEvt
	push := func(stn string, ms int, tag string) {
		evts = append(evts, bqTup(stn, bqMs(ms), stream.Str(stn), stream.Str(tag), stream.Time(bqMs(ms))))
	}
	push("R1", 1000, "p1")
	push("R1", 1800, "p2")
	push("R1", 2500, "p3")
	push("R2", 4000, "case1")
	push("R1", 6000, "p4")
	push("R1", 6500, "p5")
	push("R2", 8000, "case2")
	push("R1", 20000, "p6")
	push("R1", 22500, "p7") // >1s gap: containment chain breaks
	push("R2", 23000, "case3")
	runBatchEquiv(t, bqScenario{
		evts: evts,
		setup: func(t *testing.T, e *Engine, rec func(tag, line string)) {
			bqExec(t, e, `
				CREATE STREAM R1(readerid, tagid, tagtime);
				CREATE STREAM R2(readerid, tagid, tagtime);`)
			bqRegister(t, e, `
				SELECT FIRST(R1*).tagtime, COUNT(R1*), R2.tagid, R2.tagtime
				FROM R1, R2
				WHERE SEQ(R1*, R2) MODE CHRONICLE
				AND R2.tagtime - LAST(R1*).tagtime <= 5 SECONDS
				AND R1.tagtime - R1.previous.tagtime <= 1 SECONDS`, "fig1", rec)
		},
	})
}

// TestBatchEquivExample1Dedup: the EXISTS-window duplicate filter writing a
// derived stream — stateful filter-project (unfused), single reader under
// two aliases (outer and inner), PRECEDING-only so not time-sensitive.
func TestBatchEquivExample1Dedup(t *testing.T) {
	var evts []bqEvt
	at := 0
	push := func(ms int, rd, tag string) {
		at += ms
		evts = append(evts, bqTup("readings", bqMs(at), stream.Str(rd), stream.Str(tag), stream.Null))
	}
	push(100, "rd1", "x")  // kept
	push(200, "rd1", "x")  // dup within 1s
	push(300, "rd2", "x")  // different reader: kept
	push(600, "rd1", "x")  // still within 1s of first
	push(900, "rd1", "y")  // kept
	push(1500, "rd1", "x") // outside the 1s window again: kept
	push(100, "rd1", "y")  // dup
	runBatchEquiv(t, bqScenario{
		evts: evts,
		setup: func(t *testing.T, e *Engine, rec func(tag, line string)) {
			bqExec(t, e, `
				CREATE STREAM readings(reader_id, tag_id, read_time);
				CREATE STREAM cleaned_readings(reader_id, tag_id, read_time);
				INSERT INTO cleaned_readings
				SELECT * FROM readings AS r1
				WHERE NOT EXISTS
				  (SELECT * FROM TABLE( readings OVER (RANGE 1 SECONDS PRECEDING CURRENT)) AS r2
				   WHERE r2.reader_id = r1.reader_id AND r2.tag_id = r1.tag_id);`)
			bqSubscribe(t, e, "cleaned_readings", "clean", rec)
		},
	})
}

// TestBatchEquivExample2Table: the stream–table spanning query of Example 2;
// the final table snapshot must also match.
func TestBatchEquivExample2Table(t *testing.T) {
	var evts []bqEvt
	locs := []string{"dock", "floor", "shelf"}
	for i := 0; i < 30; i++ {
		evts = append(evts, bqTup("tag_locations", bqSec(i+1),
			stream.Str("rd"), stream.Str(fmt.Sprintf("obj-%d", i%5)), stream.Null,
			stream.Str(locs[(i/5)%len(locs)])))
	}
	runBatchEquiv(t, bqScenario{
		evts: evts,
		setup: func(t *testing.T, e *Engine, rec func(tag, line string)) {
			bqExec(t, e, `
				STREAM tag_locations(readerid, tid, tagtime, loc);
				TABLE object_movement(tagid, location, start_time);
				INSERT INTO object_movement
				SELECT tid, loc, tagtime
				FROM tag_locations WHERE NOT EXISTS
				  (SELECT tagid FROM object_movement
				   WHERE tagid = tid AND location = loc);`)
		},
		after: func(t *testing.T, e *Engine, rec func(tag, line string)) {
			rows, err := e.Query(`SELECT tagid, location, start_time FROM object_movement`)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rows {
				rec("table", bqRowLine(r))
			}
		},
	})
}

// TestBatchEquivAggregates: cumulative grouped and windowed aggregation —
// the pooled-environment batch path of aggregateOp, with a heartbeat that
// shrinks the time window between arrivals.
func TestBatchEquivAggregates(t *testing.T) {
	var evts []bqEvt
	at := 0
	for rep := 0; rep < 6; rep++ {
		for _, tag := range []string{"a", "b", "c"} {
			at += 2
			evts = append(evts, bqTup("C1", bqSec(at), stream.Str("rd"), stream.Str(tag), stream.Time(bqSec(at))))
		}
		if rep == 3 {
			at += 20
			evts = append(evts, bqBeat(bqSec(at)))
		}
	}
	runBatchEquiv(t, bqScenario{
		evts: evts,
		setup: func(t *testing.T, e *Engine, rec func(tag, line string)) {
			bqExec(t, e, `CREATE STREAM C1(readerid, tagid, tagtime);`)
			bqRegister(t, e, `SELECT tagid, COUNT(*) FROM C1 GROUP BY tagid`, "cum", rec)
			bqRegister(t, e, `SELECT COUNT(*), MIN(tagid), MAX(tagid)
				FROM C1 OVER (RANGE 10 SECONDS PRECEDING CURRENT)`, "win", rec)
		},
	})
}

// TestBatchEquivFusedFilterProject: the stateless filter-projection fused
// kernel, both writing a derived stream (rows re-enter the engine mid-run)
// and feeding a downstream consumer of that derived stream.
func TestBatchEquivFusedFilterProject(t *testing.T) {
	var evts []bqEvt
	for i := 0; i < 40; i++ {
		tag := fmt.Sprintf("a%d", i)
		if i%3 == 0 {
			tag = fmt.Sprintf("b%d", i)
		}
		evts = append(evts, bqTup("readings", bqSec(i+1),
			stream.Str(fmt.Sprintf("rd%d", i%4)), stream.Str(tag), stream.Null))
	}
	runBatchEquiv(t, bqScenario{
		evts: evts,
		setup: func(t *testing.T, e *Engine, rec func(tag, line string)) {
			bqExec(t, e, `CREATE STREAM readings(reader_id, tag_id, read_time);`)
			bqExec(t, e, `INSERT INTO hot SELECT tag_id, reader_id FROM readings WHERE tag_id LIKE 'a%'`)
			bqSubscribe(t, e, "hot", "hot", rec)
			bqRegister(t, e, `SELECT tag_id FROM hot WHERE reader_id = 'rd1'`, "down", rec)
		},
	})
}

// TestBatchEquivTimeSensitiveExact: a deferred FOLLOWING window (Example 8)
// marks the engine time-sensitive, so PushBatch must take the exact
// per-item path — heartbeat positions inside the batch are significant.
func TestBatchEquivTimeSensitiveExact(t *testing.T) {
	var evts []bqEvt
	push := func(at time.Duration, tag, typ string) {
		evts = append(evts, bqTup("tag_readings", stream.TS(at), stream.Str(tag), stream.Str(typ), stream.Null))
	}
	push(1*time.Minute, "alice", "person")
	push(90*time.Second, "tv-1", "item") // person 30s before: no theft
	push(10*time.Minute, "tv-2", "item")
	push(630*time.Second, "bob", "person") // person 30s after: no theft
	push(20*time.Minute, "tv-3", "item")   // no person within ±1min: theft
	evts = append(evts, bqBeat(stream.TS(22*time.Minute)))
	push(30*time.Minute, "carol", "person")
	evts = append(evts, bqBeat(stream.TS(40*time.Minute)))
	runBatchEquiv(t, bqScenario{
		evts:      evts,
		sensitive: true,
		setup: func(t *testing.T, e *Engine, rec func(tag, line string)) {
			bqExec(t, e, `CREATE STREAM tag_readings(tagid, tagtype, tagtime);`)
			bqRegister(t, e, `
				SELECT item.tagid
				FROM tag_readings AS item
				WHERE item.tagtype = 'item' AND NOT EXISTS
				  (SELECT * FROM tag_readings AS person
				   OVER [1 MINUTES PRECEDING AND FOLLOWING item]
				   WHERE person.tagtype = 'person')`, "theft", rec)
		},
	})
}

// TestBatchEquivExpireAfterGuarded: guarded EXPIRE AFTER queries, star and
// CONSECUTIVE, with callback and derived sinks, plus one unguarded star,
// over C1/C2 traffic interleaved with a stream no query reads. A run's idle
// expiry depends on every arrival's timestamp, the unread stream's
// included. Every reader's run carries those horizons (Batch.Prev), guarded
// sub-run or whole run, so EXPIRE AFTER does not make the engine
// time-sensitive.
func TestBatchEquivExpireAfterGuarded(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	var evts []bqEvt
	at := 0
	for i := 0; i < 400; i++ {
		at++
		if rng.Intn(6) == 0 {
			at += 4
		}
		stn := []string{"C1", "C1", "C2", "C3"}[rng.Intn(4)]
		rid := stream.Str(fmt.Sprintf("R%d", rng.Intn(4)))
		tag := stream.Str(fmt.Sprintf("t%d", rng.Intn(3)))
		evts = append(evts, bqTup(stn, bqSec(at), rid, tag, stream.Time(bqSec(at))))
		if rng.Intn(16) == 0 {
			at++
			evts = append(evts, bqBeat(bqSec(at)))
		}
	}
	star := `SELECT FIRST(C1*).tagtime, COUNT(C1*), C2.tagtime FROM C1, C2
		WHERE SEQ(C1*, C2) EXPIRE AFTER 4 SECONDS
		AND C1.readerid = '%s' AND C2.readerid = '%s' AND C1.tagid = C2.tagid`
	consecutive := `SELECT C1.tagid, C1.tagtime, C2.tagtime FROM C1, C2
		WHERE SEQ(C1, C2) MODE CONSECUTIVE EXPIRE AFTER 4 SECONDS
		AND C1.readerid = '%s' AND C2.readerid = '%s' AND C1.tagid = C2.tagid`
	runBatchEquiv(t, bqScenario{
		evts:      evts,
		sensitive: false,
		setup: func(t *testing.T, e *Engine, rec func(tag, line string)) {
			bqExec(t, e, bqQCDDL)
			bqRegister(t, e, fmt.Sprintf(star, "R0", "R1"), "star", rec)
			bqRegister(t, e, fmt.Sprintf(consecutive, "R2", "R2"), "consecutive", rec)
			bqRegister(t, e, `SELECT FIRST(C1*).tagtime, COUNT(C1*), C2.tagtime FROM C1, C2
				WHERE SEQ(C1*, C2) EXPIRE AFTER 4 SECONDS AND C1.tagid = C2.tagid`, "star_unguarded", rec)
			bqExec(t, e, "INSERT INTO star_out "+fmt.Sprintf(star, "R1", "R0"))
			bqSubscribe(t, e, "star_out", "star_out", rec)
			bqExec(t, e, "INSERT INTO consecutive_out "+fmt.Sprintf(consecutive, "R3", "R3"))
			bqSubscribe(t, e, "consecutive_out", "consecutive_out", rec)
		},
	})
}

// TestBatchEquivUnguardedStarHorizon: an unguarded star under a PRECEDING
// window over C1@1, C3@10, C1@12, C2@13, where no query reads C3. Pushed one
// by one, the advance to 10 s evicts the run C1@1 opened, so C1@12 opens a
// fresh run and C2@13 completes it. In one PushBatch the C1@12 run is
// delivered before any advance; it must still evict at the C3@10 horizon
// its Batch.Prev carries, or C1@12 joins the stale run and C2@13 fails the
// window.
func TestBatchEquivUnguardedStarHorizon(t *testing.T) {
	tup := func(stn string, at int) bqEvt {
		return bqTup(stn, bqSec(at), stream.Str("R0"), stream.Str("t0"), stream.Time(bqSec(at)))
	}
	sc := bqScenario{
		evts: []bqEvt{tup("C1", 1), tup("C3", 10), tup("C1", 12), tup("C2", 13)},
		setup: func(t *testing.T, e *Engine, rec func(tag, line string)) {
			bqExec(t, e, bqQCDDL)
			bqRegister(t, e, `SELECT FIRST(C1*).tagtime, COUNT(C1*), C2.tagtime FROM C1, C2
				WHERE SEQ(C1*, C2) OVER [5 SECONDS PRECEDING C2] AND C1.tagid = C2.tagid`, "star", rec)
		},
	}
	if rows := bqRunSerial(t, sc)["star"]; len(rows) != 1 {
		t.Fatalf("serial rows = %v, want the one match C1@12, C2@13", rows)
	}
	runBatchEquiv(t, sc)
}
