package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/esl"
	"repro/internal/snapshot"
	"repro/internal/stream"
)

// The dirty_durable workload is stock stream-SQL RFID processing on one
// fault-tolerant, journaled engine: readers re-read tags (EX1 dedup), a
// locator stream updates object_movement (EX2: table writes beside reads),
// readings join a preloaded context table, and two windowed aggregates and
// a speculative SEQ run beside them. Arrival order is perturbed the way a
// reader network perturbs it.
const (
	dirtySlack     = 200 * time.Millisecond
	dirtyStep      = 5 * time.Millisecond // mean event spacing: slack spans ~40 events
	dirtyReaders   = 16
	dirtyTags      = 40000 // reading tag population
	dirtyTableRows = 30000 // of which this many have context rows (fewer on a feed shorter than that)
	dirtyObjects   = 5000
	dirtyLocs      = 8
	// ISSUE 11's cadence of 50000 was for phases of a million events; it
	// is shrunk with them, so that at the frozen run length a paced phase
	// (33000 events) still crosses two checkpoints, the second well before
	// its end, and a max phase nine. With one or none, the checkpoint stall
	// covers about 1% of a paced phase and p99 falls on its edge.
	dirtyCkptEvery = 14000
	// dirtyReread is EX1's window: a reader's next inventory round sees the
	// tag again 5..45ms later. Ten events fit in it, not the fifty of a 250ms
	// window: EX1's NOT EXISTS is an interpreted scan of the window per
	// reading, and at fifty it alone was 60% of the push and hid the layers
	// this workload exists to show.
	dirtyReread = 50 * time.Millisecond

	dirtyRereadProb = 0.3   // natural re-read by the same reader within dirtyReread (EX1's job)
	dirtyLocShare   = 0.2   // share of clean events on tag_locations
	dirtyDupProb    = 0.05  // exact duplicates (boundary dedup's job)
	dirtyLateProb   = 0.005 // arrivals beyond slack (dead-lettered)
	dirtyBadProb    = 0.001 // wrong-arity rows (dead-lettered)
)

const dirtyDDL = `
	CREATE STREAM readings(reader_id, tag_id, read_time);
	CREATE STREAM tag_locations(readerid, tid, tagtime, loc);
	CREATE TABLE tag_info(tagid, owner, category);
	CREATE INDEX ON tag_info(tagid);
	CREATE TABLE object_movement(tagid, location, start_time);
	CREATE INDEX ON object_movement(tagid);`

const dirtySeqSQL = `
	SELECT readings.reader_id, readings.tag_id, tag_locations.tid, tag_locations.tagtime
	FROM readings, tag_locations
	WHERE SEQ(readings, tag_locations) OVER [2 SECONDS PRECEDING tag_locations] MODE RECENT
	AND readings.reader_id = tag_locations.readerid`

var dirtyQueries = []querySpec{
	{name: "ex1_dedup", sql: fmt.Sprintf(`
		INSERT INTO cleaned_readings
		SELECT * FROM readings AS r1
		WHERE NOT EXISTS
		  (SELECT * FROM TABLE( readings OVER (RANGE %d MILLISECONDS PRECEDING CURRENT)) AS r2
		   WHERE r2.reader_id = r1.reader_id AND r2.tag_id = r1.tag_id)`, dirtyReread.Milliseconds())},
	{name: "ex2_movement", sql: `
		INSERT INTO object_movement
		SELECT tid, loc, tagtime
		FROM tag_locations WHERE NOT EXISTS
		  (SELECT tagid FROM object_movement
		   WHERE tagid = tid AND location = loc)`},
	{name: "context_join", sql: `
		SELECT r.tag_id, i.owner, i.category
		FROM readings AS r, tag_info AS i
		WHERE r.tag_id = i.tagid`},
	{name: "agg_range", sql: `
		SELECT reader_id, count(*), max(read_time)
		FROM readings OVER (RANGE 2 SECONDS PRECEDING CURRENT)
		GROUP BY reader_id`},
	{name: "agg_rows", sql: `
		SELECT readerid, count(*), min(tagtime)
		FROM tag_locations OVER (ROWS 64 PRECEDING)
		GROUP BY readerid`},
	{name: "seq_strict", sql: dirtySeqSQL},
	{name: "seq_fast", sql: dirtySeqSQL + ` CONSISTENCY FAST`},
}

// dirtySeqFast indexes the speculative query in dirtyQueries.
const dirtySeqFast = 6

func dirtyOptions(dir string) []esl.Option {
	return []esl.Option{
		esl.WithSlack(dirtySlack), esl.WithLateness(stream.LateDeadLetter), esl.WithExactDedup(),
		esl.WithJournal(dir), esl.WithCheckpointEvery(dirtyCkptEvery), esl.WithFsync(snapshot.FsyncNever),
	}
}

// dirtyPreload fills the context table: the first rows tags have an owner
// and a category.
func dirtyPreload(e *esl.Engine, rows int) error {
	tbl, ok := e.Store().Get("tag_info")
	if !ok {
		return fmt.Errorf("tag_info missing")
	}
	for i := 0; i < rows; i++ {
		if _, err := tbl.Insert([]stream.Value{stream.Str(dirtyTag(i)),
			stream.Str(fmt.Sprintf("owner-%d", i%97)), stream.Str(fmt.Sprintf("cat-%d", i%11))}); err != nil {
			return err
		}
	}
	return nil
}

func dirtyTag(i int) string { return fmt.Sprintf("20.400.%d", 100000+i) }

type dirtyArrival struct {
	key stream.Timestamp // arrival position: event time plus delay
	ord int
	t   *stream.Tuple
}

// genDirty builds exactly n arrivals (clean events plus injected faults) and
// the clean sorted feed the strict reference engine replays.
func genDirty(seed int64, n int) *input {
	rng := rand.New(rand.NewSource(seed))
	readings := stream.MustSchema("readings",
		stream.Field{Name: "reader_id"}, stream.Field{Name: "tag_id"}, stream.Field{Name: "read_time"})
	locs := stream.MustSchema("tag_locations",
		stream.Field{Name: "readerid"}, stream.Field{Name: "tid"}, stream.Field{Name: "tagtime"}, stream.Field{Name: "loc"})

	arrivals := make([]dirtyArrival, 0, n+n/50)
	ord := 0
	add := func(key stream.Timestamp, t *stream.Tuple) {
		arrivals = append(arrivals, dirtyArrival{key: key, ord: ord, t: t})
		ord++
	}
	var clean feedBuilder

	// Per-reader burst state: a reader's uplink stalls for a stretch and its
	// readings arrive delayed near the slack bound, then it recovers. Burst
	// lengths average 20 and 60 readings, so a quarter of arrivals are
	// displaced inside slack.
	type burst struct{ left, calm int }
	bursts := make([]burst, dirtyReaders)
	for r := range bursts {
		bursts[r].calm = rng.Intn(60)
	}
	lateGap := 2*dirtySlack + 10*dirtyStep

	// pending re-reads: (due time, reader, tag), kept sorted by due time.
	type reread struct {
		at     stream.Timestamp
		reader int
		tag    string
	}
	var rereads []reread
	at := stream.TS(time.Second)
	// Exactly n arrivals: fault injection stops near the end, where a late
	// shadow would also outrun the trace and arrive in order.
	tail := 3 * int(lateGap/dirtyStep)
	for len(arrivals) < n {
		faults := len(arrivals) < n-tail
		at = at.Add(dirtyStep/2 + time.Duration(rng.Int63n(int64(dirtyStep))))
		reader := rng.Intn(dirtyReaders)
		rid := stream.Str(fmt.Sprintf("rd%02d", reader))
		var t *stream.Tuple
		switch {
		case len(rereads) > 0 && rereads[0].at <= at:
			rr := rereads[0]
			rereads = rereads[1:]
			reader, rid = rr.reader, stream.Str(fmt.Sprintf("rd%02d", rr.reader))
			t = &stream.Tuple{Schema: readings, TS: at, Vals: []stream.Value{rid, stream.Str(rr.tag), stream.Time(at)}}
		case rng.Float64() < dirtyLocShare:
			obj := dirtyTag(rng.Intn(dirtyObjects))
			loc := fmt.Sprintf("zone-%d", rng.Intn(dirtyLocs))
			t = &stream.Tuple{Schema: locs, TS: at, Vals: []stream.Value{rid, stream.Str(obj), stream.Time(at), stream.Str(loc)}}
		default:
			tag := dirtyTag(rng.Intn(dirtyTags))
			t = &stream.Tuple{Schema: readings, TS: at, Vals: []stream.Value{rid, stream.Str(tag), stream.Time(at)}}
			if rng.Float64() < dirtyRereadProb {
				due := at.Add(dirtyReread/10 + time.Duration(rng.Int63n(int64(dirtyReread*8/10))))
				k := sort.Search(len(rereads), func(k int) bool { return rereads[k].at > due })
				rereads = append(rereads, reread{})
				copy(rereads[k+1:], rereads[k:])
				rereads[k] = reread{at: due, reader: reader, tag: tag}
			}
		}
		clean.add(t)

		key := at
		b := &bursts[reader]
		switch {
		case b.left > 0:
			b.left--
			lo := int64(dirtySlack) * 7 / 10
			key = at.Add(time.Duration(lo + rng.Int63n(int64(dirtySlack)-lo)))
			if b.left == 0 {
				b.calm = 30 + rng.Intn(60)
			}
		case b.calm > 0:
			b.calm--
		default:
			b.left = 10 + rng.Intn(20)
		}
		add(key, t)

		if !faults {
			continue
		}
		if rng.Float64() < dirtyDupProb {
			dup := *t
			add(key, &dup) // right behind the original, inside the dedup horizon
		}
		if rng.Float64() < dirtyBadProb {
			add(key, &stream.Tuple{Schema: t.Schema, TS: at, Vals: t.Vals[:1]})
		}
		if rng.Float64() < dirtyLateProb {
			// A fresh timestamp that only arrives once the watermark has
			// passed it: always dead-lettered, never mistaken for a dup.
			lt := at.Add(1)
			add(at.Add(lateGap), &stream.Tuple{Schema: readings, TS: lt,
				Vals: []stream.Value{rid, stream.Str("late"), stream.Time(lt)}})
		}
	}
	sort.SliceStable(arrivals, func(i, j int) bool {
		if arrivals[i].key != arrivals[j].key {
			return arrivals[i].key < arrivals[j].key
		}
		return arrivals[i].ord < arrivals[j].ord
	})
	var fb feedBuilder
	for _, a := range arrivals {
		fb.add(a.t)
	}
	return &input{
		ddl: dirtyDDL, queries: dirtyQueries,
		data: fb.data, n: len(fb.frontier), frontier: fb.frontier,
		clean: clean.data,
		probe: probeHints{tableRows: min(dirtyTableRows, n), slack: dirtySlack,
			spans: []time.Duration{dirtyReread, 2 * time.Second}},
	}
}
