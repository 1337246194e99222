package cluster

// Cluster placement = the shard router's planner-derived partitioning,
// lifted onto a consistent-hash ring, plus one extra layer the in-process
// engine has no use for: query homing.
//
// In-process, every replica registers every query — replicas are cheap and
// the router only decides where *tuples* go. Across a cluster the dominant
// per-event cost at high query counts is the per-node routing index over
// all registered queries, so the win is registering each query on as few
// nodes as possible. A query is *homable* when every stream it reads
// carries a strict single-value constant guard (e.g. both SEQ steps filter
// readerid='R7'): the route-guard contract proves tuples failing the guard
// are no-ops for it, so the query registers only on the ring owner of its
// guard value, and the stream's tuples route by the guarded column. Every
// reader of the stream must agree on the guard column for that to be
// sound; otherwise the stream falls back to shard-style key routing and
// its queries register on all nodes.
//
// Pinned work keeps the in-process shard-0 contract verbatim: unshardable
// queries and their streams land on node 0, and when a pinned query is
// time-sensitive node 0 receives a heartbeat at every foreign tuple's
// position (ExactClock).

import (
	"repro/internal/esl"
	"repro/internal/shard"
)

// placement is the sealed cluster plan: the shard placement's routes —
// with guard-keyed streams as RouteKeyed on the guard column, hashed onto
// the ring like any keyed stream — and query homes (-1 = register on every
// node), plus which streams route by guard, for PlacementReport.
type placement struct {
	shard.Placement
	guarded map[string]bool
}

// computePlacement derives the cluster plan from the feed's planning
// replica. It starts from shard.ComputePlacement (pinning, key extraction,
// exact-clock analysis are identical concerns in and out of process), then
// runs the guard-homing fixpoint described in the package comment.
func computePlacement(plan *esl.Engine, rg *ring) placement {
	base := shard.ComputePlacement(plan, nil)
	queries := plan.Queries()

	// Preliminary homability: every read stream guarded, none pinned.
	guards := map[*esl.Query]map[string]esl.ConstGuard{}
	homable := map[*esl.Query]bool{}
	readersOf := map[string][]*esl.Query{}
	for _, q := range queries {
		if base.Homes[q] != -1 {
			continue // pinned: handled by the base placement
		}
		reads := q.Reads()
		g := map[string]esl.ConstGuard{}
		ok := len(reads) > 0
		for _, s := range reads {
			readersOf[s] = append(readersOf[s], q)
			if base.Routes[s].Mode == shard.RoutePinned {
				ok = false
				continue
			}
			cg, has := plan.RouteGuard(q, s)
			if !has {
				ok = false
				continue
			}
			g[s] = cg
		}
		homable[q] = ok
		guards[q] = g
	}

	// Fixpoint: a stream routes by guard only while all its readers are
	// homable and agree on the guard column; a query stays homable only
	// while all its streams guard-route and its guard values agree on one
	// ring owner. Demoting a query can demote its streams, which demotes
	// their other readers — iterate to stability.
	byGuard := map[string]shard.Route{} // streams that route by guard
	owner := func(q *esl.Query) (node int, ok bool) {
		node = -1
		for s, cg := range guards[q] {
			n := rg.node(cg.Val.Hash())
			if _, guarded := byGuard[s]; !guarded || (node != -1 && n != node) {
				return -1, false
			}
			node = n
		}
		return node, true
	}
	for changed := true; changed; {
		changed = false
		for s, qs := range readersOf {
			delete(byGuard, s)
			if base.Routes[s].Mode == shard.RoutePinned {
				continue
			}
			rt := shard.Route{Mode: shard.RouteKeyed, KeyPos: -1}
			for _, q := range qs {
				cg := guards[q][s]
				if !homable[q] || (rt.KeyPos != -1 && rt.KeyPos != cg.Pos) {
					rt.KeyPos = -2
					break
				}
				rt.KeyPos, rt.KeyCol = cg.Pos, cg.Col
			}
			if rt.KeyPos >= 0 {
				byGuard[s] = rt
			}
		}
		for q, h := range homable {
			if !h {
				continue
			}
			if _, ok := owner(q); !ok {
				homable[q] = false
				changed = true
			}
		}
	}

	p := placement{Placement: base, guarded: map[string]bool{}}
	for q, h := range homable {
		if h {
			p.Homes[q], _ = owner(q)
		}
	}
	for s, rt := range byGuard {
		p.Routes[s] = rt
		p.guarded[s] = true
	}
	return p
}
