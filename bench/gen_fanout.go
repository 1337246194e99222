package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/epc"
	"repro/internal/stream"
)

// The fanout workload is a dock-door deployment with many standing
// subscriptions: 1024 reader-guarded two-step SEQ queries — half of them
// opening on the shared DOCK reader, so the planner can merge their prefix
// into one automaton — plus 64 stateless EPC pattern filters. No query is
// time-sensitive, so the engine stays on its batched path.
const (
	fanoutSeq     = 1024
	fanoutShared  = fanoutSeq / 2
	fanoutFilters = 64
	// 64 tags revisited every 64 pairs x 20ms = 1.28s: beyond the 1s window,
	// so each C2 pairs with exactly the C1 sent 10ms before it.
	fanoutTags = 64
	fanoutStep = 10 * time.Millisecond
)

const fanoutDDL = `
	CREATE STREAM C1(readerid, tagid, tagtime);
	CREATE STREAM C2(readerid, tagid, tagtime);`

func fanoutQueries() []querySpec {
	qs := make([]querySpec, 0, fanoutSeq+fanoutFilters)
	for qi := 0; qi < fanoutSeq; qi++ {
		c1 := fmt.Sprintf("R%d", qi)
		if qi < fanoutShared {
			c1 = "DOCK"
		}
		qs = append(qs, querySpec{name: fmt.Sprintf("q%04d", qi), sql: fmt.Sprintf(`
			SELECT C2.tagid, C2.tagtime FROM C1, C2
			WHERE SEQ(C1, C2) OVER [1 SECONDS PRECEDING C2]
			AND C1.readerid = '%s' AND C2.readerid = 'R%d'
			AND C1.tagid = C2.tagid`, c1, qi)})
	}
	for k := 0; k < fanoutFilters; k++ {
		qs = append(qs, querySpec{name: fmt.Sprintf("f%02d", k), sql: fmt.Sprintf(
			`SELECT tagid, tagtime FROM C2 WHERE epc_match(tagid, '20.%d.*')`, 100+k)})
	}
	return qs
}

// genFanout builds n events as C1/C2 pairs, each aimed at one seeded-random
// query; the expected rows follow directly from which pair was aimed where.
func genFanout(seed int64, n int) *input {
	rng := rand.New(rand.NewSource(seed))
	queries := fanoutQueries()
	expect := make(map[string]rowSet, len(queries))
	for _, q := range queries {
		expect[q.name] = rowSet{}
	}
	tags := make([]string, fanoutTags)
	for k := range tags {
		tags[k] = epc.Format(20, int64(100+k), int64(7000+k))
	}
	schemas := genSchemas([]string{"C1", "C2"}, readingFields)
	var fb feedBuilder
	for p := 0; p < n/2; p++ {
		q := rng.Intn(fanoutSeq)
		k := p % fanoutTags
		tag := stream.Str(tags[k])
		c1Reader, c2Reader := fmt.Sprintf("R%d", q), fmt.Sprintf("R%d", q)
		if q < fanoutShared {
			c1Reader = "DOCK"
		}
		t1 := stream.TS(time.Duration(2*p+1) * fanoutStep)
		t2 := t1.Add(fanoutStep)
		fb.add(&stream.Tuple{Schema: schemas["C1"], TS: t1,
			Vals: []stream.Value{stream.Str(c1Reader), tag, stream.Time(t1)}})
		fb.add(&stream.Tuple{Schema: schemas["C2"], TS: t2,
			Vals: []stream.Value{stream.Str(c2Reader), tag, stream.Time(t2)}})
		expect[queries[q].name].add(tag, stream.Time(t2))
		expect[queries[fanoutSeq+k].name].add(tag, stream.Time(t2))
	}
	return &input{
		ddl: fanoutDDL, queries: queries,
		data: fb.data, n: len(fb.frontier), frontier: fb.frontier, expect: expect,
		probe: probeHints{spans: []time.Duration{time.Second}},
	}
}
