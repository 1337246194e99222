package cluster

import (
	"fmt"
	"testing"

	"repro/internal/esl"
	"repro/internal/shard"
	"repro/internal/stream"
)

const placementDDL = `
	CREATE STREAM C1(readerid, tagid, tagtime);
	CREATE STREAM C2(readerid, tagid, tagtime);`

func planEngine(t *testing.T, ddl string) *esl.Engine {
	t.Helper()
	e := esl.New()
	if _, err := e.Exec(ddl); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestPlacementGuardHoming: reader-local queries (both SEQ steps filter one
// readerid) home to single nodes and their streams route by the guard
// column, distributing across the ring.
func TestPlacementGuardHoming(t *testing.T) {
	plan := planEngine(t, placementDDL)
	rg := newRing(4, 0)
	queries := map[*esl.Query]string{}
	for i := 0; i < 16; i++ {
		rd := fmt.Sprintf("R%d", i)
		q, err := plan.RegisterQuery(fmt.Sprintf("q%d", i), fmt.Sprintf(`
			SELECT C1.tagid, C2.tagtime FROM C1, C2
			WHERE SEQ(C1, C2) AND C1.tagid=C2.tagid
			AND C1.readerid='%s' AND C2.readerid='%s'`, rd, rd), nil)
		if err != nil {
			t.Fatal(err)
		}
		queries[q] = rd
	}
	p := computePlacement(plan, rg)
	seen := map[int]bool{}
	for q, rd := range queries {
		home := p.Homes[q]
		if home < 0 {
			t.Fatalf("query for %s did not home", rd)
		}
		if want := rg.node(stream.Str(rd).Hash()); home != want {
			t.Fatalf("query for %s homed to %d, ring owner is %d", rd, home, want)
		}
		seen[home] = true
	}
	if len(seen) < 2 {
		t.Fatalf("16 reader-local queries all homed to %v: no distribution", seen)
	}
	for _, s := range []string{"c1", "c2"} {
		rt := p.Routes[s]
		if !p.guarded[s] || rt.Mode != shard.RouteKeyed || rt.KeyCol != "readerid" {
			t.Fatalf("stream %s: route %+v (guarded=%v), want guard-keyed(readerid)", s, rt, p.guarded[s])
		}
	}
}

// TestPlacementKeyedFallback: a keyed query without constant guards cannot
// home — it registers everywhere and its streams keep shard-style key
// routing.
func TestPlacementKeyedFallback(t *testing.T) {
	plan := planEngine(t, placementDDL)
	q, err := plan.RegisterQuery("q", `
		SELECT C1.tagid, C2.tagtime FROM C1, C2
		WHERE SEQ(C1, C2) AND C1.tagid=C2.tagid`, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := computePlacement(plan, newRing(4, 0))
	if p.Homes[q] != -1 {
		t.Fatalf("unguarded keyed query homed to %d, want -1 (all nodes)", p.Homes[q])
	}
	for _, s := range []string{"c1", "c2"} {
		if rt := p.Routes[s]; p.guarded[s] || rt.Mode != shard.RouteKeyed || rt.KeyCol != "tagid" {
			t.Fatalf("stream %s: route %+v (guarded=%v), want keyed(tagid)", s, rt, p.guarded[s])
		}
	}
}

// TestPlacementMixedReadersDemote: one guarded and one unguarded reader of
// the same stream — the guarded query must not home, because routing by its
// guard would starve the unguarded reader's replicas of tuples.
func TestPlacementMixedReadersDemote(t *testing.T) {
	plan := planEngine(t, placementDDL)
	guarded, err := plan.RegisterQuery("guarded", `
		SELECT C1.tagid, C2.tagtime FROM C1, C2
		WHERE SEQ(C1, C2) AND C1.tagid=C2.tagid
		AND C1.readerid='R1' AND C2.readerid='R1'`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.RegisterQuery("open", `
		SELECT C1.tagid, C2.tagtime FROM C1, C2
		WHERE SEQ(C1, C2) AND C1.tagid=C2.tagid`, nil); err != nil {
		t.Fatal(err)
	}
	p := computePlacement(plan, newRing(4, 0))
	if p.Homes[guarded] != -1 {
		t.Fatalf("guarded query homed to %d despite an unguarded co-reader", p.Homes[guarded])
	}
	for _, s := range []string{"c1", "c2"} {
		if rt := p.Routes[s]; p.guarded[s] || rt.Mode != shard.RouteKeyed {
			t.Fatalf("stream %s: route %+v (guarded=%v), want keyed fallback", s, rt, p.guarded[s])
		}
	}
}

// TestPlacementPinned: an unshardable query (window over the stream's own
// full history) pins to node 0 along with its stream.
func TestPlacementPinned(t *testing.T) {
	plan := planEngine(t, `
		CREATE STREAM readings(reader_id, tag_id, read_time);
		CREATE STREAM cleaned(reader_id, tag_id, read_time);`)
	if _, err := plan.Exec(`
		INSERT INTO cleaned
		SELECT * FROM readings AS r1
		WHERE NOT EXISTS
		  (SELECT * FROM TABLE( readings OVER (RANGE 1 SECONDS PRECEDING CURRENT)) AS r2
		   WHERE r2.reader_id = r1.reader_id AND r2.tag_id = r1.tag_id);`); err != nil {
		t.Fatal(err)
	}
	p := computePlacement(plan, newRing(4, 0))
	if rt := p.Routes["readings"]; rt.Mode != shard.RoutePinned {
		t.Fatalf("readings route %+v, want pinned", rt)
	}
	for q, home := range p.Homes {
		if home != 0 {
			t.Fatalf("query %s homed to %d, want 0 (pinned)", q.Name, home)
		}
	}
}

// TestPlacementSingleNodeDegenerate: with one node everything lands on it,
// whatever the modes say.
func TestPlacementSingleNodeDegenerate(t *testing.T) {
	plan := planEngine(t, placementDDL)
	q, err := plan.RegisterQuery("q", `
		SELECT C1.tagid, C2.tagtime FROM C1, C2
		WHERE SEQ(C1, C2) AND C1.tagid=C2.tagid
		AND C1.readerid='R3' AND C2.readerid='R3'`, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := computePlacement(plan, newRing(1, 0))
	if h := p.Homes[q]; h != 0 {
		t.Fatalf("single-node home %d, want 0", h)
	}
}
