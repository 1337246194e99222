// Package cluster is the multi-node data plane: a stdlib-TCP wire protocol
// that streams batches of tuples from an ingest tier (the feed) to N engine
// nodes and re-merges their output rows in timestamp order. Placement reuses
// the shard router's planner-derived partition keys via consistent hashing,
// so keyed SEQ queries distribute across nodes while pinned/global queries
// land on node 0 under the same exact-heartbeat contract the in-process
// sharded engine gives its shard 0.
//
// On top of the data plane sits the availability layer: nodes cut periodic
// per-engine checkpoints at batch-sequence LSNs and ship them back to the
// feed, the feed retains the in-flight batch window past the last cut, and
// when a node dies its ring slice re-homes onto a surviving peer as an
// *adopted engine* — restored from the shipped snapshot, replayed from the
// retained window, resumed with exactly-once re-emission through the merge
// tier (see failover.go and DESIGN.md).
package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/snapshot"
	"repro/internal/stream"
)

// Version is the wire protocol version negotiated in the hello exchange.
// v2 added the fail-over control plane: node ids in hello, origin-scoped
// frames, checkpoint shipping, adoption/restore, and keepalive pings.
// v3 added record polarity to Rows frames: speculative queries ship
// assertions and retractions with their MatchIDs, one tag byte per row
// (zero-cost for strict finals).
const Version = 3

// helloMagic opens both hello payloads; the trailing newline guards against
// text-mode corruption, same trick as the snapshot file magic.
const helloMagic = "ESLWIRE\n"

const (
	// MaxFrame bounds one frame's body (type byte + payload). A frame is
	// read fully into memory before decoding, so the bound is the memory
	// admission control for a connection.
	MaxFrame = 8 << 20
	// frameOverhead is the fixed per-frame cost: 4-byte length prefix and
	// 4-byte CRC trailer.
	frameOverhead = 8
	// maxIntern caps each direction's string table; past the cap both sides
	// stop assigning ids in lockstep and strings travel raw.
	maxIntern = 1 << 20
)

// Frame types. The hello exchange pins the protocol version; everything
// after it is length-prefixed, CRC-checked, and decoded against the
// connection's interning state.
const (
	frameHello    byte = 1  // feed -> node: magic, version
	frameHelloAck byte = 2  // node -> feed: magic, version, credit grant
	frameExec     byte = 3  // feed -> node: DDL script (synchronous, expects OK)
	frameRegister byte = 4  // feed -> node: slot, name, query SQL (expects OK)
	frameSub      byte = 5  // feed -> node: slot, stream name (expects OK)
	frameOK       byte = 6  // node -> feed: control-frame success
	frameBatch    byte = 7  // feed -> node: tuple/heartbeat run
	frameRows     byte = 8  // node -> feed: output row/tuple events
	frameAck      byte = 9  // node -> feed: credit return + watermark
	frameDrain    byte = 10 // feed -> node: flush everything (expects DrainAck)
	frameDrainAck byte = 11 // node -> feed: final watermark + accounting
	frameError    byte = 12 // node -> feed: fatal error text; connection dies
	frameBye      byte = 13 // feed -> node: orderly shutdown

	// v2 fail-over control plane.
	frameCkptReq byte = 14 // feed -> node: cut a checkpoint at this LSN
	frameCkpt    byte = 15 // node -> feed: snapshot blob + counters at the cut
	frameAdopt   byte = 16 // feed -> node: host a fresh engine for a dead origin
	frameRestore byte = 17 // feed -> node: restore an adopted engine from a shipped snapshot
	frameFor     byte = 18 // either direction: origin-scoped wrapper around an inner frame
	framePing    byte = 19 // feed -> node: keepalive probe
	framePong    byte = 20 // node -> feed: keepalive response
)

// Typed wire errors. Callers match with errors.Is; the decoder never panics
// on malformed input and never allocates more than the input could justify.
var (
	// ErrTruncated reports a frame or payload that ends before its encoded
	// structure does. It is the shared codec's sentinel (snapshot.Reader
	// decodes every payload), so errors.Is matches either name.
	ErrTruncated = snapshot.ErrTruncated
	// ErrCorrupt reports framing or checksum violations and payload bytes no
	// encoder produces; shared with the codec like ErrTruncated.
	ErrCorrupt = snapshot.ErrCorrupt
	// ErrTooBig reports a frame whose declared length exceeds MaxFrame.
	ErrTooBig = errors.New("cluster: frame exceeds size limit")
	// ErrVersion reports a peer speaking an incompatible protocol version.
	ErrVersion = errors.New("cluster: incompatible protocol version")
	// ErrProtocol reports a semantically invalid frame sequence (bad type,
	// unknown interning reference, control frame out of order).
	ErrProtocol = errors.New("cluster: protocol violation")
)

// protof wraps ErrProtocol with context.
func protof(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrProtocol}, args...)...)
}

// ---- framing ----------------------------------------------------------------

// A frame on the wire is
//
//	uint32le  n        length of body
//	byte      type     } body, n bytes
//	[]byte    payload  }
//	uint32le  crc      IEEE CRC32 of the body
//
// The length prefix is what lets the reader admit exactly one frame into
// memory; the CRC catches corruption before any payload structure is
// trusted.

// appendFrame appends the complete wire encoding of one frame to dst.
func appendFrame(dst []byte, typ byte, payload []byte) []byte {
	n := 1 + len(payload)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	body := len(dst)
	dst = append(dst, typ)
	dst = append(dst, payload...)
	crc := crc32.ChecksumIEEE(dst[body:])
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// frameReader reads frames off a connection one at a time, reusing one
// buffer sized to the largest frame seen (and shedding it after a burst so
// one oversized frame does not pin memory for the connection's lifetime).
// next is the single validation point for framing: length bounds,
// truncation, and checksum.
type frameReader struct {
	r   io.Reader
	buf []byte
}

// frameReaderKeepCap bounds the read buffer capacity retained between
// frames.
const frameReaderKeepCap = 1 << 20

// next reads one frame, returning its type and its payload (aliasing the
// reader's buffer — valid until the next call). io.EOF before the first
// header byte is a clean between-frames close; input that ends anywhere
// later is ErrTruncated.
func (fr *frameReader) next() (typ byte, payload []byte, err error) {
	var head [4]byte
	if _, err := io.ReadFull(fr.r, head[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = fmt.Errorf("%w: %v", ErrTruncated, err)
		}
		return 0, nil, err
	}
	size := binary.LittleEndian.Uint32(head[:])
	if size < 1 {
		return 0, nil, snapshot.Corruptf("empty frame body")
	}
	if size > MaxFrame {
		return 0, nil, fmt.Errorf("%w: %d bytes (max %d)", ErrTooBig, size, MaxFrame)
	}
	need := int(size) + 4
	if cap(fr.buf) < need {
		fr.buf = make([]byte, need)
	}
	fr.buf = fr.buf[:need]
	if _, err := io.ReadFull(fr.r, fr.buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	body := fr.buf[:size]
	want := binary.LittleEndian.Uint32(fr.buf[size:])
	if crc32.ChecksumIEEE(body) != want {
		return 0, nil, snapshot.Corruptf("checksum mismatch")
	}
	typ, payload = body[0], body[1:]
	if cap(fr.buf) > frameReaderKeepCap {
		defer func() { fr.buf = nil }() // shed after this frame is consumed
	}
	return typ, payload, nil
}

// ---- payload codec ----------------------------------------------------------
//
// Payloads are built from the shared codec's primitives (snapshot.Writer /
// snapshot.Reader). What is specific to the wire is the lockstep
// string-interning table each direction of a connection keeps.

// wireEnc builds frame payloads for one direction of one connection. Its
// interning table persists across frames: the first time a string travels
// it goes raw and both ends assign it the next id in lockstep; afterwards
// it costs one varint. Stream names, column-bounded identifiers (reader
// ids, tag EPCs), and row column names all collapse this way.
type wireEnc struct {
	snapshot.Writer
	ids map[string]uint64
}

func newWireEnc() *wireEnc {
	return &wireEnc{ids: make(map[string]uint64)}
}

func (e *wireEnc) reset() { e.Buf = e.Buf[:0] }

// str appends an interned string reference: id (1-based) when the string
// has traveled before, else 0 followed by the raw bytes, registering it in
// the lockstep table while capacity remains.
func (e *wireEnc) str(s string) {
	if id, ok := e.ids[s]; ok {
		e.Uvarint(id)
		return
	}
	e.Uvarint(0)
	e.String(s)
	if uint64(len(e.ids)) < maxIntern {
		e.ids[s] = uint64(len(e.ids)) + 1
	}
}

// value appends one SQL value: kind byte + kind payload, strings interned.
func (e *wireEnc) value(v stream.Value) {
	if s, ok := e.ValueHead(v); ok {
		e.str(s)
	}
}

// values appends a length-prefixed value row, strings interned.
func (e *wireEnc) values(vals []stream.Value) {
	e.Uvarint(uint64(len(vals)))
	for _, v := range vals {
		e.value(v)
	}
}

// wireDec decodes frame payloads for one direction of one connection,
// holding the receive side of the lockstep interning table.
type wireDec struct {
	snapshot.Reader
	tab []string
}

func newWireDec() *wireDec { return &wireDec{} }

// str reads an interned string reference (the counterpart of wireEnc.str).
// New strings are routed through the engine-wide interning pool so the
// decode path shares canonical instances with everything else in process —
// the "zero-copy" property: one allocation per distinct identifier per
// process, not per frame.
func (d *wireDec) str() (string, error) {
	id, err := d.Uvarint()
	if err != nil {
		return "", err
	}
	if id == 0 {
		raw, err := d.String()
		if err != nil {
			return "", err
		}
		s := stream.Intern(raw)
		if uint64(len(d.tab)) < maxIntern {
			d.tab = append(d.tab, s)
		}
		return s, nil
	}
	if id > uint64(len(d.tab)) {
		return "", protof("interned string reference %d out of range (table %d)", id, len(d.tab))
	}
	return d.tab[id-1], nil
}

// value reads one SQL value, strings interned.
func (d *wireDec) value() (stream.Value, error) {
	v, isStr, err := d.ValueHead()
	if isStr {
		var s string
		s, err = d.str()
		v = stream.Str(s)
	}
	return v, err
}

// values reads a length-prefixed value row into arena storage.
func (d *wireDec) values(arena *tupleArena) ([]stream.Value, error) {
	n, err := d.Len()
	if err != nil {
		return nil, err
	}
	vals := arena.values(n)
	for j := range vals {
		if vals[j], err = d.value(); err != nil {
			return nil, err
		}
	}
	return vals, nil
}
