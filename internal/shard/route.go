package shard

import (
	"strings"

	"repro/internal/esl"
)

// RouteMode decides where a stream's tuples go.
type RouteMode uint8

const (
	// RoutePinned sends every tuple to partition 0, the designated home of
	// all serial-only work.
	RoutePinned RouteMode = iota
	// RouteKeyed hashes one column so each key's tuples always land on the
	// same partition.
	RouteKeyed
	// RouteFree round-robins tuples: only stateless
	// (placement-indifferent) queries read the stream.
	RouteFree
)

// Route is one stream's placement decision.
type Route struct {
	Mode RouteMode
	// KeyPos is the column index hashed under RouteKeyed, and KeyCol its
	// schema name (kept so out-of-process consumers can re-resolve the
	// column against their own schema instance).
	KeyPos int
	KeyCol string
}

// Placement is the full partitioning decision derived from a planning
// engine's registered queries: where each stream's tuples must go, which
// queries are confined to partition 0, and whether partition 0 needs an
// exact clock mirror of foreign arrivals. The in-process sharded engine
// applies it to worker shards; the cluster data plane applies the same
// structure to TCP nodes.
type Placement struct {
	// Routes maps lower-cased stream name to its route.
	Routes map[string]Route
	// Homes maps each query to its output home: -1 = any partition (the
	// query runs replicated or keyed and every partition's output counts),
	// 0 = pinned (only partition 0's output is real).
	Homes map[*esl.Query]int
	// ExactClock reports that some pinned query is time-sensitive: the
	// paper's SEQ semantics make time pass with every arrival, so
	// partition 0 must observe a heartbeat at every foreign tuple's
	// position, not just a trailing high-water mark per flush.
	ExactClock bool
}

// ComputePlacement derives stream routes and query homes from the queries
// registered on a planning replica. retained names streams whose full
// history must stay on partition 0 (lower-cased). It runs a small fixpoint:
//
//   - an unshardable query is pinned, and pins every stream it reads;
//   - a query writing a derived stream that other queries read is pinned
//     (its output tuples materialize on whatever partition runs it —
//     fanning them back out by a different key is not supported);
//   - two keyed queries demanding different key columns on one stream pin
//     that stream;
//   - a keyed query reading a pinned stream becomes pinned itself (all its
//     input is on partition 0 anyway, and its other streams must follow);
//   - retained streams are pinned so snapshot queries see the full history
//     on partition 0.
//
// Streams left unconstrained by any keyed or pinned reader route free.
func ComputePlacement(replica *esl.Engine, retained map[string]bool) Placement {
	queries := replica.Queries()
	type qinfo struct {
		shard  esl.Shardability
		reads  []string
		pinned bool
	}
	infos := make([]qinfo, len(queries))
	readersOf := map[string]int{} // lower stream name -> reading query count
	for i, q := range queries {
		infos[i] = qinfo{shard: q.Shardability(), reads: q.Reads()}
		infos[i].pinned = !infos[i].shard.Shardable
		for _, s := range q.Reads() {
			readersOf[s]++
		}
	}
	for i, q := range queries {
		if target, isTable := q.Target(); target != "" && !isTable && readersOf[target] > 0 {
			infos[i].pinned = true
		}
	}

	streamPinned := map[string]bool{}
	for name := range retained {
		streamPinned[name] = true
	}
	for changed := true; changed; {
		changed = false
		// Pinned queries pin their input streams.
		for _, qi := range infos {
			if !qi.pinned {
				continue
			}
			for _, s := range qi.reads {
				if !streamPinned[s] {
					streamPinned[s] = true
					changed = true
				}
			}
		}
		// Key-column conflicts pin the stream.
		keyCol := map[string]string{}
		for _, qi := range infos {
			if qi.pinned || qi.shard.Keys == nil {
				continue
			}
			for s, col := range qi.shard.Keys {
				if prev, ok := keyCol[s]; ok && prev != col && !streamPinned[s] {
					streamPinned[s] = true
					changed = true
				}
				keyCol[s] = col
			}
		}
		// Keyed queries reading a pinned stream join it on partition 0.
		for i, qi := range infos {
			if qi.pinned || qi.shard.Keys == nil {
				continue
			}
			for s := range qi.shard.Keys {
				if streamPinned[s] {
					infos[i].pinned = true
					changed = true
					break
				}
			}
		}
	}

	// Final per-stream key columns from the surviving keyed queries.
	keyCol := map[string]string{}
	for _, qi := range infos {
		if qi.pinned || qi.shard.Keys == nil {
			continue
		}
		for s, col := range qi.shard.Keys {
			keyCol[s] = col
		}
	}

	p := Placement{
		Routes: map[string]Route{},
		Homes:  map[*esl.Query]int{},
	}
	for _, name := range replica.StreamNames() {
		lower := strings.ToLower(name)
		switch {
		case streamPinned[lower]:
			p.Routes[lower] = Route{Mode: RoutePinned}
		case keyCol[lower] != "":
			schema, _ := replica.StreamSchema(lower)
			if pos, ok := schema.Col(keyCol[lower]); ok {
				p.Routes[lower] = Route{Mode: RouteKeyed, KeyPos: pos, KeyCol: keyCol[lower]}
			} else {
				p.Routes[lower] = Route{Mode: RoutePinned}
			}
		default:
			p.Routes[lower] = Route{Mode: RouteFree}
		}
	}

	for i, q := range queries {
		home := -1
		if infos[i].pinned {
			home = 0
		}
		p.Homes[q] = home
	}
	p.ExactClock = replica.TimeSensitive()
	return p
}

// recomputeRoutesLocked rebuilds the placement from the registered queries'
// shardability metadata via ComputePlacement and applies it: routes and the
// exact-clock flag to the Front, output homes to the slots.
func (e *Engine) recomputeRoutesLocked() {
	// Workers are idle here (every registration path barriers first), so
	// reading the replica is race-free.
	p := ComputePlacement(e.replicas[0], e.retained)
	e.front.Place(p)
	for _, slot := range e.slots {
		if h, ok := p.Homes[slot.q]; ok && slot.q != nil {
			slot.home = h
		}
	}
}
