package cluster

// Message-level payload codecs over the wire primitives: the hello
// exchange, tuple batches (timestamp-delta + interned identifiers), and
// output row events. Shared by the node server and the feed client so the
// two ends cannot drift.

import (
	"fmt"

	"repro/internal/esl"
	"repro/internal/shard"
	"repro/internal/snapshot"
	"repro/internal/spec"
	"repro/internal/stream"
)

// ---- hello ------------------------------------------------------------------

// encodeHello opens a session. id is the feed-assigned node id for this
// connection — it names the connection's *self origin* and lets adopted
// engines (fail-over) be addressed relative to it.
func encodeHello(e *wireEnc, id int) {
	e.Buf = append(e.Buf, helloMagic...)
	e.Uvarint(Version)
	e.Uvarint(uint64(id))
}

func decodeHello(d *wireDec) (id int, err error) {
	m, err := d.Fixed(len(helloMagic))
	if err != nil {
		return 0, err
	}
	if string(m) != helloMagic {
		return 0, snapshot.Corruptf("bad hello magic")
	}
	ver, err := d.Uvarint()
	if err != nil {
		return 0, err
	}
	if ver != Version {
		return 0, fmt.Errorf("%w: peer speaks v%d, this end v%d", ErrVersion, ver, Version)
	}
	id64, err := d.Uvarint()
	if err != nil {
		return 0, err
	}
	if id64 > uint64(maxOrigins) {
		return 0, protof("node id %d out of range", id64)
	}
	return int(id64), nil
}

// encodeHelloAck grants the initial credit and (v3) advertises whether the
// node's hosted engines run a reorder boundary. A feed whose nodes all
// reorder may ship out-of-order tuples verbatim instead of rejecting them —
// that is what lets node-side CONSISTENCY speculation see real disorder.
func encodeHelloAck(e *wireEnc, credit int, reorders bool) {
	encodeHello(e, 0)
	e.Uvarint(uint64(credit))
	e.Bool(reorders)
}

func decodeHelloAck(d *wireDec) (credit int, reorders bool, err error) {
	if _, err := decodeHello(d); err != nil {
		return 0, false, err
	}
	c, err := d.Uvarint()
	if err != nil {
		return 0, false, err
	}
	if c > MaxFrame<<8 {
		return 0, false, protof("absurd credit grant %d", c)
	}
	ro, err := d.Bool()
	if err != nil {
		return 0, false, err
	}
	return int(c), ro, d.Finish()
}

// ---- batches ----------------------------------------------------------------

// encodeBatch appends a run of items (tuples and heartbeats in
// non-decreasing timestamp order). Timestamps travel as deltas from the
// previous item in the frame, stream names and string values as interned
// references — the steady-state cost of a tuple is a few bytes.
func encodeBatch(e *wireEnc, items []stream.Item) {
	e.Uvarint(uint64(len(items)))
	prev := int64(0)
	for _, it := range items {
		ts := int64(it.TS)
		if it.IsHeartbeat() {
			e.Byte(0)
			e.Varint(ts - prev)
		} else {
			e.Byte(1)
			e.Varint(ts - prev)
			t := it.Tuple
			e.str(t.Schema.Name())
			e.values(t.Vals)
		}
		prev = ts
	}
}

// tupleArena hands out tuples and value slices from bounded chunks so a
// batch of N tuples costs ~N/256 allocations instead of 2N. Chunks are
// never reused — decoded tuples outlive the frame inside the engine, and a
// chunk is freed by the GC once every tuple in it dies. Chunk sizes are
// fixed, so a hostile count cannot make the decoder pre-allocate more than
// one chunk ahead of what it has actually parsed.
type tupleArena struct {
	tuples []stream.Tuple
	vals   []stream.Value
}

const (
	arenaTupleChunk = 256
	arenaValueChunk = 1024
)

func (a *tupleArena) tuple() *stream.Tuple {
	if len(a.tuples) == 0 {
		a.tuples = make([]stream.Tuple, arenaTupleChunk)
	}
	t := &a.tuples[0]
	a.tuples = a.tuples[1:]
	return t
}

func (a *tupleArena) values(n int) []stream.Value {
	if n > arenaValueChunk {
		return make([]stream.Value, n)
	}
	if len(a.vals) < n {
		a.vals = make([]stream.Value, arenaValueChunk)
	}
	v := a.vals[:n:n]
	a.vals = a.vals[n:]
	return v
}

// decodeBatch parses a batch payload into scratch (reused across frames;
// the tuples themselves come from the arena — they outlive the frame
// inside the engine). resolve maps stream names to the receiving engine's
// schemas.
func decodeBatch(d *wireDec, resolve func(string) (*stream.Schema, bool), scratch []stream.Item, arena *tupleArena) ([]stream.Item, error) {
	count, err := d.Len()
	if err != nil {
		return scratch, err
	}
	prev := int64(0)
	for i := 0; i < count; i++ {
		tag, err := d.Byte()
		if err != nil {
			return scratch, err
		}
		delta, err := d.Varint()
		if err != nil {
			return scratch, err
		}
		ts := prev + delta
		prev = ts
		switch tag {
		case 0:
			scratch = append(scratch, stream.Heartbeat(stream.Timestamp(ts)))
		case 1:
			name, err := d.str()
			if err != nil {
				return scratch, err
			}
			schema, ok := resolve(name)
			if !ok {
				return scratch, protof("batch references unknown stream %q", name)
			}
			vals, err := d.values(arena)
			if err != nil {
				return scratch, err
			}
			// Materialized verbatim, like snapshot restore: the feed's
			// boundary already screened the tuple once.
			t := arena.tuple()
			*t = stream.Tuple{Schema: schema, Vals: vals, TS: stream.Timestamp(ts)}
			scratch = append(scratch, stream.Of(t))
		default:
			return scratch, snapshot.Corruptf("unknown batch item tag %d", tag)
		}
	}
	return scratch, nil
}

// ---- output rows ------------------------------------------------------------

// Rows frames carry shard.Event values: the output a node ships back, a
// query row or a subscribed tuple tagged with the feed-assigned
// registration slot. Order within and across Rows frames is the node's
// emission order; the feed reconstructs per-origin sequence numbers from it,
// so they never travel.

// encodeRows appends a run of output events. Row column-name shapes are
// cached per slot on the encoder (the planner shares one Names slice across
// every row a query emits, so pointer identity is a reliable cache key);
// steady state ships values only.
func encodeRows(e *wireEnc, events []shard.Event, shapes map[int]*string) {
	e.Uvarint(uint64(len(events)))
	prev := int64(0)
	for _, ev := range events {
		e.Uvarint(uint64(ev.Slot))
		if ev.Tup != nil {
			e.Byte(1)
			e.Varint(int64(ev.Tup.TS) - prev)
			prev = int64(ev.Tup.TS)
			e.str(ev.Tup.Schema.Name())
			e.values(ev.Tup.Vals)
			continue
		}
		e.Byte(0)
		e.Varint(int64(ev.Row.TS) - prev)
		prev = int64(ev.Row.TS)
		// Record tag (wire v3): 0 = plain strict final (nothing follows),
		// else polarity + MatchID so the feed reconstructs the speculative
		// record stream exactly.
		pol, mseq, mhash := esl.RecordTags(ev.Row)
		if pol == spec.Final && mseq == 0 && mhash == 0 {
			e.Byte(0)
		} else {
			switch pol {
			case spec.Assert:
				e.Byte(1)
			case spec.Retract:
				e.Byte(2)
			default:
				e.Byte(3) // tagged final (late final of a speculative query)
			}
			e.Uvarint(mseq)
			e.Uvarint(mhash)
		}
		var key *string
		if len(ev.Row.Names) > 0 {
			key = &ev.Row.Names[0]
		}
		if cached, ok := shapes[ev.Slot]; ok && cached == key {
			e.Byte(0) // same shape as this slot's previous row
		} else {
			e.Byte(1)
			e.Uvarint(uint64(len(ev.Row.Names)))
			for _, n := range ev.Row.Names {
				e.str(n)
			}
			shapes[ev.Slot] = key
		}
		e.values(ev.Row.Vals)
	}
}

// decodeRows parses a Rows payload. shapes caches each slot's current
// column-name slice (shared across rows, mirroring the planner); resolve
// maps subscribed tuple streams to the feed-side planning schemas.
func decodeRows(d *wireDec, resolve func(string) (*stream.Schema, bool), shapes map[int][]string) ([]shard.Event, error) {
	count, err := d.Len()
	if err != nil {
		return nil, err
	}
	// Cap the up-front capacity: count is screened against the payload
	// length, but trusting it verbatim would still let a 4-byte-per-event
	// claim reserve ~20x the frame size in event headers.
	cap0 := count
	if cap0 > 4096 {
		cap0 = 4096
	}
	events := make([]shard.Event, 0, cap0)
	var arena tupleArena
	prev := int64(0)
	for i := 0; i < count; i++ {
		slot64, err := d.Uvarint()
		if err != nil {
			return nil, err
		}
		if slot64 > uint64(maxSlots) {
			return nil, protof("slot %d out of range", slot64)
		}
		slot := int(slot64)
		kind, err := d.Byte()
		if err != nil {
			return nil, err
		}
		delta, err := d.Varint()
		if err != nil {
			return nil, err
		}
		ts := prev + delta
		prev = ts
		switch kind {
		case 1:
			name, err := d.str()
			if err != nil {
				return nil, err
			}
			schema, ok := resolve(name)
			if !ok {
				return nil, protof("rows frame references unknown stream %q", name)
			}
			vals, err := d.values(&arena)
			if err != nil {
				return nil, err
			}
			t := arena.tuple()
			*t = stream.Tuple{Schema: schema, Vals: vals, TS: stream.Timestamp(ts)}
			events = append(events, shard.Event{Slot: slot, Tup: t, TS: t.TS})
		case 0:
			tag, err := d.Byte()
			if err != nil {
				return nil, err
			}
			var pol spec.Polarity
			var mseq, mhash uint64
			switch tag {
			case 0:
				// plain strict final: no record identity travels
			case 1, 2, 3:
				if mseq, err = d.Uvarint(); err != nil {
					return nil, err
				}
				if mhash, err = d.Uvarint(); err != nil {
					return nil, err
				}
				switch tag {
				case 1:
					pol = spec.Assert
				case 2:
					pol = spec.Retract
				}
			default:
				return nil, snapshot.Corruptf("unknown record tag %d", tag)
			}
			shaped, err := d.Byte()
			if err != nil {
				return nil, err
			}
			if shaped == 1 {
				n, err := d.Len()
				if err != nil {
					return nil, err
				}
				names := make([]string, n)
				for j := range names {
					if names[j], err = d.str(); err != nil {
						return nil, err
					}
				}
				shapes[slot] = names
			}
			vals, err := d.values(&arena)
			if err != nil {
				return nil, err
			}
			row := esl.Row{Names: shapes[slot], Vals: vals, TS: stream.Timestamp(ts)}
			if tag != 0 {
				row = esl.TagRecord(row, pol, mseq, mhash)
			}
			events = append(events, shard.Event{Slot: slot, Row: row, TS: row.TS})
		default:
			return nil, snapshot.Corruptf("unknown rows event kind %d", kind)
		}
	}
	return events, nil
}

// maxSlots bounds registration slots per session — far above any real
// query count, low enough that a corrupt slot id cannot grow feed-side
// maps without bound.
const maxSlots = 1 << 20

// maxOrigins bounds logical origin (node) ids. Origins are assigned densely
// from the feed's node list, so the bound only screens corrupt frames.
const maxOrigins = 1 << 16

// ---- fail-over control payloads ---------------------------------------------
//
// Fail-over addresses *origins* — logical node slots in the feed's ring —
// rather than connections. A connection hosts its own origin (the id it was
// handed in hello) plus any origins it adopted after their node died. Frames
// that are per-origin travel wrapped in a For frame: uvarint origin, inner
// type byte, inner payload. Both directions use the same wrapper.

// encodeFor begins a For payload; the caller appends the inner payload to
// the same encoder immediately after.
func encodeFor(e *wireEnc, origin int, inner byte) {
	e.Uvarint(uint64(origin))
	e.Byte(inner)
}

// decodeFor reads the For header; the decoder is left positioned at the
// inner payload.
func decodeFor(d *wireDec) (origin int, inner byte, err error) {
	o, err := d.Uvarint()
	if err != nil {
		return 0, 0, err
	}
	if o > uint64(maxOrigins) {
		return 0, 0, protof("origin %d out of range", o)
	}
	if inner, err = d.Byte(); err != nil {
		return 0, 0, err
	}
	if inner == frameFor {
		return 0, 0, protof("nested For frame")
	}
	return int(o), inner, nil
}

// encodeCkptReq asks the hosting node to cut a checkpoint of one origin's
// engine. lsn is the feed-side batch sequence the engine must have fully
// applied at the cut — the node verifies it against its own applied count,
// so a drifted cut surfaces as a protocol error instead of silent row loss
// after a later restore.
func encodeCkptReq(e *wireEnc, lsn uint64) {
	e.Uvarint(lsn)
}

func decodeCkptReq(d *wireDec) (lsn uint64, err error) {
	if lsn, err = d.Uvarint(); err != nil {
		return 0, err
	}
	return lsn, d.Finish()
}

// encodeSnap carries a snapshot blob with its cut coordinates: the batch
// LSN the engine had applied, the origin's transport counters at the cut,
// and the engine snapshot itself. The same payload shape serves Ckpt
// (node -> feed, shipping) and Restore (feed -> node, re-homing).
func encodeSnap(e *wireEnc, lsn uint64, c NodeCounters, blob []byte) {
	e.Uvarint(lsn)
	encodeCounters(e, c)
	e.Buf = append(e.Buf, blob...)
}

// decodeSnap parses a Ckpt/Restore payload. The returned blob aliases the
// frame buffer — callers that keep it past the frame must copy.
func decodeSnap(d *wireDec) (lsn uint64, c NodeCounters, blob []byte, err error) {
	if lsn, err = d.Uvarint(); err != nil {
		return 0, c, nil, err
	}
	if c, err = decodeCounters(d); err != nil {
		return 0, c, nil, err
	}
	return lsn, c, d.Rest(), nil
}

// ---- control payloads -------------------------------------------------------

func encodeAck(e *wireEnc, credit int, wm stream.Timestamp) {
	e.Uvarint(uint64(credit))
	e.Varint(int64(wm))
}

func decodeAck(d *wireDec) (credit int, wm stream.Timestamp, err error) {
	c, err := d.Uvarint()
	if err != nil {
		return 0, 0, err
	}
	if c > MaxFrame<<8 {
		return 0, 0, protof("absurd credit return %d", c)
	}
	w, err := d.Varint()
	if err != nil {
		return 0, 0, err
	}
	return int(c), stream.Timestamp(w), d.Finish()
}

// NodeCounters is a node's accounting for one session, shipped in DrainAck
// frames; the soak harness checks them against the feed's own counts
// (accounting identity: nothing lost, nothing duplicated in transport).
type NodeCounters struct {
	Tuples uint64 // tuples ingested into the node engine
	Beats  uint64 // heartbeats ingested
	Rows   uint64 // output events shipped back
}

func encodeCounters(e *wireEnc, c NodeCounters) {
	e.Uvarint(c.Tuples)
	e.Uvarint(c.Beats)
	e.Uvarint(c.Rows)
}

func decodeCounters(d *wireDec) (c NodeCounters, err error) {
	for _, p := range []*uint64{&c.Tuples, &c.Beats, &c.Rows} {
		if *p, err = d.Uvarint(); err != nil {
			return c, err
		}
	}
	return c, nil
}

func encodeDrainAck(e *wireEnc, wm stream.Timestamp, c NodeCounters) {
	e.TS(wm)
	encodeCounters(e, c)
}

func decodeDrainAck(d *wireDec) (wm stream.Timestamp, c NodeCounters, err error) {
	if wm, err = d.TS(); err != nil {
		return 0, c, err
	}
	if c, err = decodeCounters(d); err != nil {
		return 0, c, err
	}
	return wm, c, d.Finish()
}

// encodeRegister carries a continuous-query registration. wantRows=false
// means the feed has no callback for this query — the node still runs it
// (it may write derived streams others read) but ships no rows back.
func encodeRegister(e *wireEnc, slot int, name, sql string, wantRows bool) {
	e.Uvarint(uint64(slot))
	e.String(name)
	e.String(sql)
	e.Bool(wantRows)
}

func decodeRegister(d *wireDec) (slot int, name, sql string, wantRows bool, err error) {
	s, err := d.Uvarint()
	if err != nil {
		return 0, "", "", false, err
	}
	if s > uint64(maxSlots) {
		return 0, "", "", false, protof("slot %d out of range", s)
	}
	if name, err = d.String(); err != nil {
		return 0, "", "", false, err
	}
	if sql, err = d.String(); err != nil {
		return 0, "", "", false, err
	}
	if wantRows, err = d.Bool(); err != nil {
		return 0, "", "", false, err
	}
	return int(s), name, sql, wantRows, d.Finish()
}

func encodeSubscribe(e *wireEnc, slot int, streamName string) {
	e.Uvarint(uint64(slot))
	e.String(streamName)
}

func decodeSubscribe(d *wireDec) (slot int, streamName string, err error) {
	s, err := d.Uvarint()
	if err != nil {
		return 0, "", err
	}
	if s > uint64(maxSlots) {
		return 0, "", protof("slot %d out of range", s)
	}
	if streamName, err = d.String(); err != nil {
		return 0, "", err
	}
	return int(s), streamName, d.Finish()
}
