package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/snapshot"
	"repro/internal/stream"
)

// querySpec is one standing query of a workload. hold is the event-time
// distance between a row's timestamp and the earliest event that can release
// it (the FOLLOWING half of a deferred window); it only shifts which input
// batch a row's latency is timed from.
type querySpec struct {
	name string
	sql  string
	hold time.Duration
	// unordered exempts the query from the per-query timestamp-order check:
	// its rows are stamped with a time other than the arrival that released
	// them, so even the serial engine emits them out of stamp order.
	unordered bool
}

// rowSet is a multiset of expected output rows, keyed by content hash.
type rowSet map[uint64]int

func (s rowSet) add(vals ...stream.Value) { s[hashVals(vals)]++ }

func (s rowSet) total() int {
	n := 0
	for _, c := range s {
		n += c
	}
	return n
}

// input is one generated workload instance: the encoded bytes the program
// under test is fed, plus everything the harness needs to schedule and check
// the run. Nothing but data reaches the engine.
type input struct {
	ddl     string
	queries []querySpec
	// data is the feed: uvarint-length-prefixed journal-format item records
	// (snapshot.EncodeItem), in arrival order.
	data []byte
	n    int
	// frontier[i] is the newest event timestamp among items 0..i — the
	// event-time frontier once item i has arrived. A row stamped ts can be
	// emitted no earlier than the first item whose frontier reaches ts.
	frontier []stream.Timestamp
	// expect maps query name to its reference rows; nil means the reference
	// is computed by runReference (dirty_durable).
	expect map[string]rowSet
	// clean, when set, is the reference feed: the same workload without
	// faults, sorted, for the strict reference engine.
	clean []byte
	// probe carries workload facts the per-layer probes need.
	probe probeHints
}

// probeHints tells the traced run which isolated layer probes apply.
type probeHints struct {
	tableRows int             // preloaded context-table size (0 = no table)
	slack     time.Duration   // reorder slack (0 = no ingest boundary)
	spans     []time.Duration // window spans the workload's buffers hold
}

func (in *input) hash() uint64 {
	h := fnv.New64a()
	h.Write(in.data)
	return h.Sum64()
}

func (in *input) expectedRows() int {
	n := 0
	for _, s := range in.expect {
		n += s.total()
	}
	return n
}

// feedBuilder encodes items into the framed feed and tracks the frontier.
type feedBuilder struct {
	data     []byte
	frontier []stream.Timestamp
	hi       stream.Timestamp
}

func (b *feedBuilder) add(t *stream.Tuple) {
	body := snapshot.EncodeItem(stream.Of(t))
	b.data = binary.AppendUvarint(b.data, uint64(len(body)))
	b.data = append(b.data, body...)
	if t.TS > b.hi || len(b.frontier) == 0 {
		b.hi = t.TS
	}
	b.frontier = append(b.frontier, b.hi)
}

// decoder walks the framed feed, turning records back into items through the
// target's own schemas — the program-side half of the byte boundary.
type decoder struct {
	data    []byte
	off     int
	resolve snapshot.SchemaResolver
	items   []stream.Item
}

// next decodes up to max items into a reused slice; the engines copy what
// they retain, so the slice is only valid until the following call.
func (d *decoder) next(max int) ([]stream.Item, error) {
	d.items = d.items[:0]
	for len(d.items) < max && d.off < len(d.data) {
		l, k := binary.Uvarint(d.data[d.off:])
		if k <= 0 || d.off+k+int(l) > len(d.data) {
			return nil, fmt.Errorf("feed: bad frame at byte %d", d.off)
		}
		body := d.data[d.off+k : d.off+k+int(l)]
		it, err := snapshot.DecodeItem(body, d.resolve)
		if err != nil {
			return nil, fmt.Errorf("feed: item at byte %d: %w", d.off, err)
		}
		d.items = append(d.items, it)
		d.off += k + int(l)
	}
	return d.items, nil
}

// hashVals is the row content hash: position-sensitive FNV-style fold of the
// value hashes. Names and timestamps are excluded — deferred rows are
// re-stamped at emission, and the query name keys the multiset already.
func hashVals(vals []stream.Value) uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	for _, v := range vals {
		h = (h ^ v.Hash()) * prime64
	}
	return h
}

var readingFields = []stream.Field{{Name: "readerid"}, {Name: "tagid"}, {Name: "tagtime"}}

// genSchemas builds generator-side schemas. They never reach the engine —
// the feed carries stream names, and the decoder resolves them against the
// target — but EncodeItem needs a schema to name the stream.
func genSchemas(names []string, fields []stream.Field) map[string]*stream.Schema {
	m := make(map[string]*stream.Schema, len(names))
	for _, n := range names {
		m[n] = stream.MustSchema(n, fields...)
	}
	return m
}
