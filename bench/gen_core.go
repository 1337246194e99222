package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/rfid"
	"repro/internal/stream"
)

// The core workload is the paper's §3 monitoring floor: four rfid scenario
// traces running side by side on one event-time axis.
//
//   - quality line (EX6): items enter every 180ms and cross C1..C4, so a
//     30-minute window holds ~10k live tags; 15% of items are read twice at
//     C1, which is what makes the pairing modes disagree.
//   - packing line (EX7, EX3): a 10x-speed Figure 1 line on R1/R2.
//   - clinic (EX5): hundreds of wards, each running A1->A2->A3 procedures
//     with wrong-order and stalled tests; expiry is by timer.
//   - door (EX8): item/person passages with staged thefts.
//
// Event-time rates per stream second, used to size the traces to a target
// event count: quality 3.6 readings per item / 0.18s, packing ~5.1/s,
// clinic ~2.8 readings per 14-minute test per ward, door ~1.9 per 1.75s.
const (
	qualityArrival = 180 * time.Millisecond
	qualityDup     = 0.15
	qualityTags    = 500
	clinicWards    = 60
	clinicStep     = 5 * time.Second
	clinicDeadline = time.Minute
	doorTau        = 500 * time.Millisecond

	coreEventsPerSecond = 3.59/0.18 + 5.1 + clinicWards*2.8/80 + 1.9/1.75
)

var coreStreams = []string{"C1", "C2", "C3", "C4", "R1", "R2", "A1", "A2", "A3"}

const coreDDL = `
	CREATE STREAM C1(readerid, tagid, tagtime);
	CREATE STREAM C2(readerid, tagid, tagtime);
	CREATE STREAM C3(readerid, tagid, tagtime);
	CREATE STREAM C4(readerid, tagid, tagtime);
	CREATE STREAM R1(readerid, tagid, tagtime);
	CREATE STREAM R2(readerid, tagid, tagtime);
	CREATE STREAM A1(readerid, tagid, tagtime);
	CREATE STREAM A2(readerid, tagid, tagtime);
	CREATE STREAM A3(readerid, tagid, tagtime);
	CREATE STREAM tag_readings(tagid, tagtype, tagtime);`

// coreQueries is the query set all three core_* topologies register. EX3
// reads R1, not C1: an aggregate is unshardable and pins every stream it
// reads, which would drag the whole quality line onto partition 0.
var coreQueries = []querySpec{
	{name: "ex6_chronicle", sql: `
		SELECT C1.tagid, C1.tagtime, C2.tagtime, C3.tagtime, C4.tagtime
		FROM C1, C2, C3, C4
		WHERE SEQ(C1, C2, C3, C4)
		OVER [60 SECONDS PRECEDING C4] MODE CHRONICLE
		AND C1.tagid=C2.tagid AND C1.tagid=C3.tagid AND C1.tagid=C4.tagid`},
	{name: "ex6_recent", sql: `
		SELECT C1.tagid, C1.tagtime, C2.tagtime FROM C1, C2
		WHERE SEQ(C1, C2) OVER [60 SECONDS PRECEDING C2] MODE RECENT
		AND C1.tagid=C2.tagid`},
	{name: "ex6_consecutive", sql: `
		SELECT C1.tagid, C1.tagtime, C2.tagtime FROM C1, C2
		WHERE SEQ(C1, C2) OVER [60 SECONDS PRECEDING C2] MODE CONSECUTIVE
		AND C1.tagid=C2.tagid`},
	{name: "ex6_unrestricted", sql: `
		SELECT C1.tagid, C1.tagtime, C2.tagtime FROM C1, C2
		WHERE SEQ(C1, C2) OVER [60 SECONDS PRECEDING C2] MODE UNRESTRICTED
		AND C1.tagid=C2.tagid`},
	{name: "ex7_containment", sql: `
		SELECT FIRST(R1*).tagtime, COUNT(R1*), R2.tagid, R2.tagtime
		FROM R1, R2
		WHERE SEQ(R1*, R2) MODE CHRONICLE
		AND R2.tagtime - LAST(R1*).tagtime <= 500 MILLISECONDS
		AND R1.tagtime - R1.previous.tagtime <= 100 MILLISECONDS`},
	// A timer expiry is stamped with its deadline but surfaces on the next
	// arrival, after that arrival's own exceptions: unordered by design.
	{name: "ex5_clinic", unordered: true, sql: `
		SELECT exception.level, exception.reason, A1.tagid
		FROM A1, A2, A3
		WHERE EXCEPTION_SEQ(A1, A2, A3) OVER [1 MINUTES FOLLOWING A1]
		AND A1.tagid = A2.tagid AND A1.tagid = A3.tagid`},
	{name: "ex8_door", hold: doorTau, sql: `
		SELECT item.tagid
		FROM tag_readings AS item
		WHERE item.tagtype = 'item' AND NOT EXISTS
		  (SELECT * FROM tag_readings AS person
		   OVER [500 MILLISECONDS PRECEDING AND FOLLOWING item]
		   WHERE person.tagtype = 'person')`},
	{name: "ex3_epc_count", sql: `
		SELECT count(tagid) FROM R1 WHERE tagid LIKE '20.%.%'
		AND extract_serial(tagid) > 5000
		AND extract_serial(tagid) < 99999999`},
}

// coreReading is one merged reading; door marks the three-column
// tag_readings shape (tagid, tagtype, tagtime).
type coreReading struct {
	rfid.Reading
	door bool
}

// genCore builds the shared core_* input for roughly n events and derives
// every query's reference rows from the scenario generators' ground truth.
func genCore(seed int64, n int) *input {
	rng := rand.New(rand.NewSource(seed))
	span := time.Duration(float64(n) / coreEventsPerSecond * float64(time.Second))
	if span < 2*clinicDeadline {
		span = 2 * clinicDeadline
	}
	expect := map[string]rowSet{}
	for _, q := range coreQueries {
		expect[q.name] = rowSet{}
	}
	var all []coreReading
	add := func(rs []rfid.Reading, door bool) {
		for _, r := range rs {
			all = append(all, coreReading{Reading: r, door: door})
		}
	}

	// Quality line.
	qtr, qtruth := rfid.QualityLine(rfid.QualityConfig{
		Items: int(span / qualityArrival), ArrivalEvery: qualityArrival,
		DropRate: 0.1, Seed: rng.Int63(),
	})
	// Items ride reusable tagged carriers: item i gets carrier i mod
	// qualityTags. A carrier re-enters 90s after its last entry, beyond the
	// 60s window plus the longest transit, so uses never interact and the
	// per-item ground truth stands.
	carrier := map[string]string{}
	for i := range qtruth {
		carrier[qtruth[i].Tag] = qtruth[i%qualityTags].Tag
	}
	for i := range qtr.Readings {
		qtr.Readings[i].TagID = carrier[qtr.Readings[i].TagID]
	}
	add(qtr.Readings, false)
	for _, it := range qtruth {
		it.Tag = carrier[it.Tag]
		first, last := it.Times[0], it.Times[0]
		if rng.Float64() < qualityDup {
			// Re-read at C1 before the item can reach C2 (transit >= 1.5s).
			last = first.Add(100*time.Millisecond + time.Duration(rng.Int63n(int64(900*time.Millisecond))))
			all = append(all, coreReading{Reading: rfid.Reading{Stream: "C1", ReaderID: "C1", TagID: it.Tag, At: last}})
		}
		tag := stream.Str(it.Tag)
		if len(it.Times) >= 2 {
			c2 := stream.Time(it.Times[1])
			expect["ex6_recent"].add(tag, stream.Time(last), c2)
			expect["ex6_consecutive"].add(tag, stream.Time(last), c2)
			expect["ex6_unrestricted"].add(tag, stream.Time(first), c2)
			if last != first {
				expect["ex6_unrestricted"].add(tag, stream.Time(last), c2)
			}
		}
		if it.Completed {
			expect["ex6_chronicle"].add(tag, stream.Time(it.Times[0]), stream.Time(it.Times[1]),
				stream.Time(it.Times[2]), stream.Time(it.Times[3]))
		}
	}

	// Packing line at 10x the Figure 1 pace (the query constants follow).
	ptr, ptruth := rfid.PackingLine(rfid.PackingConfig{
		Cases:    int(span / (975 * time.Millisecond)),
		IntraGap: 100 * time.Millisecond, CaseDelay: 500 * time.Millisecond, InterCaseGap: time.Second,
		LateCaseEvery: 23, MissedCaseRate: 0.02, Seed: rng.Int63(),
	})
	add(ptr.Readings, false)
	itemAt := map[string]stream.Timestamp{}
	serials := int64(0)
	for _, r := range ptr.Readings {
		if r.Stream != "R1" {
			continue
		}
		itemAt[r.TagID] = r.At
		// Product serials start at 5000; EX3 counts those above it.
		if serials++; serials > 1 {
			expect["ex3_epc_count"].add(stream.Int(serials - 1))
		}
	}
	for _, c := range ptruth {
		if c.LateCase || c.Missed {
			continue
		}
		expect["ex7_containment"].add(stream.Time(itemAt[c.Items[0]]), stream.Int(int64(len(c.Items))),
			stream.Str(c.CaseTag), stream.Time(c.CaseAt))
	}

	// Clinic wards, staggered, each finishing a deadline before the trace
	// ends so every stalled test's timer fires inside the run.
	cycle := 3*clinicStep + clinicDeadline + clinicStep
	for w := 0; w < clinicWards; w++ {
		offset := time.Duration(rng.Int63n(int64(cycle)))
		tests := int((span - offset - 2*clinicDeadline) / cycle)
		if tests <= 0 {
			continue
		}
		staff := []string{fmt.Sprintf("w%03d-a", w), fmt.Sprintf("w%03d-b", w)}
		ctr, ctruth := rfid.ClinicWorkflow(rfid.ClinicConfig{
			Tests: tests, Staff: staff, StepDelay: clinicStep, Deadline: clinicDeadline,
			WrongOrderEvery: 5, StallEvery: 7, Seed: rng.Int63(),
		})
		rs := ctr.Readings
		for i := range rs {
			rs[i].At = rs[i].At.Add(offset)
		}
		add(rs, false)
		// Tests are sequential and separated by more than the deadline, so
		// a stalled test's reading count is the run length before the gap.
		k := 0
		for _, tst := range ctruth {
			steps := 1
			for k+steps < len(rs) && rs[k+steps].At.Sub(rs[k+steps-1].At) < clinicDeadline {
				steps++
			}
			k += steps
			who := stream.Str(tst.Staff)
			switch {
			case tst.WrongOrder:
				// A1, A3, A2: A3 breaks the run and cannot start one; A2
				// then finds no run to extend.
				expect["ex5_clinic"].add(stream.Int(1), stream.Str("WRONG_TUPLE"), who)
				expect["ex5_clinic"].add(stream.Int(0), stream.Str("BAD_START"), who)
				expect["ex5_clinic"].add(stream.Int(0), stream.Str("BAD_START"), who)
			case tst.Stalled:
				expect["ex5_clinic"].add(stream.Int(int64(steps)), stream.Str("WINDOW_EXPIRED"), who)
			}
		}
	}

	// Door traffic.
	dtr, dtruth := rfid.DoorTraffic(rfid.DoorConfig{
		Events: int((span - 4*doorTau) / (7 * doorTau / 2)), Tau: doorTau, TheftEvery: 9, Seed: rng.Int63(),
	})
	add(dtr.Readings, true)
	for _, ev := range dtruth {
		if ev.Theft {
			expect["ex8_door"].add(stream.Str(ev.ItemTag))
		}
	}

	sort.SliceStable(all, func(i, j int) bool { return all[i].At < all[j].At })

	schemas := genSchemas(coreStreams, readingFields)
	door := stream.MustSchema("tag_readings",
		stream.Field{Name: "tagid"}, stream.Field{Name: "tagtype"}, stream.Field{Name: "tagtime"})
	var fb feedBuilder
	for _, r := range all {
		if r.door {
			fb.add(&stream.Tuple{Schema: door, TS: r.At,
				Vals: []stream.Value{stream.Str(r.TagID), stream.Str(r.ReaderID), stream.Time(r.At)}})
			continue
		}
		fb.add(&stream.Tuple{Schema: schemas[r.Stream], TS: r.At,
			Vals: []stream.Value{stream.Str(r.ReaderID), stream.Str(r.TagID), stream.Time(r.At)}})
	}
	return &input{
		ddl: coreDDL, queries: coreQueries,
		data: fb.data, n: len(fb.frontier), frontier: fb.frontier, expect: expect,
		probe: probeHints{spans: []time.Duration{60 * time.Second, 2 * doorTau}},
	}
}
