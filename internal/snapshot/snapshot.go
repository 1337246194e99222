// Package snapshot is the durable-state subsystem and the only owner of
// byte layouts: the binary codec every snapshot, journal record and cluster
// wire payload is built on (codec.go), a versioned, self-describing
// snapshot format for checkpointing engine state, an append-only event
// journal (journal.go) whose replay suffix turns a point-in-time snapshot
// into exact crash recovery, and the journal/checkpoint/recover lifecycle
// the serial and sharded engines share (lifecycle.go).
//
// The codec is deliberately engine-agnostic: it understands values, tuples,
// and framing, and each state-bearing package (window, core, esl, shard)
// writes its own structures through an Encoder and reads them back through a
// Decoder. Two invariants shape the design:
//
//   - Snapshots carry data, never code. Compiled predicates, projections,
//     and callbacks are rebuilt by re-executing the same DDL and query
//     registrations before Restore; the decoder verifies the registered
//     shape (query count, names, kinds, shard count) and fails with a typed
//     error on any mismatch rather than guessing.
//
//   - Tuples are interned by pointer. The engine relies on pointer identity
//     (CHRONICLE consumption removes tuples from shared buffers by address;
//     aggregate window entries key maps by *Tuple), so the encoder assigns
//     each distinct tuple one id and the decoder materializes each id once,
//     restoring the sharing graph exactly.
//
// Encoding is deterministic: every map the engine snapshots is iterated in
// sorted order, so encode → decode → encode is byte-identical — the property
// the codec fuzz test enforces.
package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/stream"
)

// Version is the snapshot format version; bumped on any layout change.
// v2 added the merged-group section (shared automata + member fences);
// v3 replaced flat table sections with the delta-compressed version
// history (interned rows + per-version shared prefixes) that carries the
// MVCC AS OF cuts across a restore; v4 appended the speculation section
// (per-query reconciler state + per-level arrival gates and shadow-replica
// state), so in-flight FAST/MIDDLE assertions survive fail-over without
// double emission; v5 wrote every core matcher in one frame (clock,
// partitions, then the live timers in schedule order), so EXCEPTION_SEQ
// state gained the clock prefix and SEQ state an empty timer list; v6
// saved every esl group table (aggregate groups, DISTINCT multisets, the
// DISTINCT/LIMIT output stage) as key values instead of hashes, and an
// aggregate's window as (timestamp, group, arguments) rows instead of
// tuples.
const Version = 6

// magic identifies a snapshot file. The trailing newline guards against
// text-mode corruption, the classic PNG trick.
const magic = "ESLSNP1\n"

// Typed decode errors. Callers match with errors.Is; the decoder never
// panics on malformed input.
var (
	// ErrTruncated reports input that ends before the encoded structure
	// does. The cluster wire shares it (and ErrCorrupt) with snapshots and
	// the journal: all three decode through Reader.
	ErrTruncated = errors.New("truncated input")
	// ErrCorrupt reports framing or checksum violations and byte sequences
	// no encoder produces.
	ErrCorrupt = errors.New("corrupt input")
	// ErrVersion reports a snapshot written by an incompatible format version.
	ErrVersion = errors.New("snapshot: unsupported format version")
	// ErrShardMismatch reports restoring a snapshot into an engine whose
	// topology (serial vs sharded, or shard count) differs from the writer's.
	ErrShardMismatch = errors.New("snapshot: shard topology mismatch")
	// ErrStateMismatch reports a snapshot whose registered shape (queries,
	// streams, tables) does not match the engine it is being restored into.
	ErrStateMismatch = errors.New("snapshot: engine state mismatch")
	// ErrUnsupportedState reports live state the codec cannot serialize,
	// e.g. a custom Go accumulator that does not implement state transfer.
	ErrUnsupportedState = errors.New("snapshot: unsupported live state")
)

// Corruptf wraps ErrCorrupt with context.
func Corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}

// Mismatchf wraps ErrStateMismatch with context.
func Mismatchf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrStateMismatch}, args...)...)
}

// ---- encoder ----------------------------------------------------------------

// Encoder accumulates one snapshot body in memory while interning tuples,
// then Finish writes the self-describing file: magic, version, tuple table,
// body, CRC. Buffering the body first is what lets the tuple table — which
// is only known after the body has been walked — precede it in the file, so
// the decoder can materialize tuples before parsing references to them.
type Encoder struct {
	Writer // the body
	tups   map[*stream.Tuple]uint64
	order  []*stream.Tuple
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder {
	return &Encoder{tups: make(map[*stream.Tuple]uint64)}
}

// Tuple appends a tuple reference, interning the tuple on first sight. Id 0
// is reserved for nil so optional references need no separate flag.
func (e *Encoder) Tuple(t *stream.Tuple) {
	if t == nil {
		e.Uvarint(0)
		return
	}
	id, ok := e.tups[t]
	if !ok {
		id = uint64(len(e.order) + 1)
		e.tups[t] = id
		e.order = append(e.order, t)
	}
	e.Uvarint(id)
}

// Finish writes the complete snapshot file. The CRC covers everything after
// the magic, so truncation and bit flips anywhere in the payload are caught
// before any structure is trusted.
func (e *Encoder) Finish(w io.Writer) error {
	head := Writer{Buf: []byte(magic)}
	head.Uvarint(Version)
	head.Uvarint(uint64(len(e.order)))
	for _, t := range e.order {
		head.String(t.Schema.Name())
		head.TS(t.TS)
		head.Uvarint(t.Seq)
		head.Values(t.Vals)
	}
	head.Uvarint(uint64(len(e.Buf)))

	crc := crc32.NewIEEE()
	crc.Write(head.Buf[len(magic):])
	crc.Write(e.Buf)
	if _, err := w.Write(head.Buf); err != nil {
		return err
	}
	if _, err := w.Write(e.Buf); err != nil {
		return err
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc.Sum32())
	_, err := w.Write(tail[:])
	return err
}

// Bytes renders the snapshot into a fresh byte slice (Finish into memory).
func (e *Encoder) Bytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := e.Finish(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ---- decoder ----------------------------------------------------------------

// SchemaResolver maps a stream name back to its live schema at restore time.
// Snapshots never embed schemas: the restoring engine has already re-executed
// the DDL, and resolving by name both deduplicates and verifies shape.
type SchemaResolver func(name string) (*stream.Schema, bool)

// Decoder reads one snapshot produced by Encoder. It reads the whole input
// up front, verifies the CRC before parsing anything, and bounds-checks
// every read, so malformed input yields ErrTruncated/ErrCorrupt — never a
// panic or a runaway allocation.
type Decoder struct {
	Reader // the body
	tups   []*stream.Tuple
}

// NewDecoder consumes r, validates framing and checksum, materializes the
// tuple table against the resolver, and positions the decoder at the body.
func NewDecoder(r io.Reader, resolve SchemaResolver) (*Decoder, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return NewDecoderBytes(raw, resolve)
}

// NewDecoderBytes is NewDecoder over an in-memory snapshot.
func NewDecoderBytes(raw []byte, resolve SchemaResolver) (*Decoder, error) {
	if len(raw) < len(magic)+4 {
		return nil, ErrTruncated
	}
	if string(raw[:len(magic)]) != magic {
		return nil, Corruptf("bad magic")
	}
	payload := raw[len(magic) : len(raw)-4]
	want := binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if crc32.ChecksumIEEE(payload) != want {
		return nil, Corruptf("checksum mismatch")
	}
	d := &Decoder{Reader: Reader{buf: payload}}
	ver, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	if ver != Version {
		return nil, fmt.Errorf("%w: snapshot is v%d, decoder is v%d", ErrVersion, ver, Version)
	}
	ntups, err := d.Len()
	if err != nil {
		return nil, err
	}
	d.tups = make([]*stream.Tuple, 0, ntups)
	for i := 0; i < ntups; i++ {
		name, err := d.String()
		if err != nil {
			return nil, err
		}
		schema, ok := resolve(name)
		if !ok {
			return nil, Mismatchf("snapshot references unknown stream %q", name)
		}
		ts, err := d.TS()
		if err != nil {
			return nil, err
		}
		seq, err := d.Uvarint()
		if err != nil {
			return nil, err
		}
		vals, err := d.Values()
		if err != nil {
			return nil, err
		}
		// Tuples are materialized verbatim — no re-validation. The boundary
		// screened (or quarantined) them once on first ingestion, and partial
		// state must round-trip even for rows a stricter constructor would
		// reject.
		d.tups = append(d.tups, &stream.Tuple{Schema: schema, Vals: vals, TS: ts, Seq: seq})
	}
	bodyLen, err := d.Len()
	if err != nil {
		return nil, err
	}
	if bodyLen != d.Remaining() {
		return nil, Corruptf("body length %d does not match remaining %d", bodyLen, d.Remaining())
	}
	return d, nil
}

// Tuple reads a tuple reference; id 0 decodes to nil. Every occurrence of
// the same id returns the same pointer, restoring shared-identity graphs.
func (d *Decoder) Tuple() (*stream.Tuple, error) {
	id, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	if id == 0 {
		return nil, nil
	}
	if id > uint64(len(d.tups)) {
		return nil, Corruptf("tuple id %d out of range (%d interned)", id, len(d.tups))
	}
	return d.tups[id-1], nil
}
