package snapshot

// The binary codec every durable or transmitted byte layout is built on:
// snapshot bodies (Encoder/Decoder), journal records (EncodeItem/DecodeItem)
// and the cluster wire's frame payloads all append through Writer and read
// back through Reader, so each primitive — and the value-kind switch — is
// written once.
//
// Reader is one bounds-checked cursor over an in-memory buffer. Every read
// checks the bytes it needs before touching them and fails with a typed
// error, one rule per failure:
//
//   - the input ends inside a primitive (varint, byte, bool, float) or a
//     fixed-size field: ErrTruncated;
//   - a declared length — a string's or a collection's — exceeds the bytes
//     remaining: ErrCorrupt (every element costs at least one byte, so the
//     check also screens hostile lengths before anything is allocated);
//   - a byte sequence no Writer produces — a non-minimal or 64-bit-overflowing
//     varint, a bool byte other than 0 or 1, an unknown value kind, bytes left
//     over at Finish: ErrCorrupt.
//
// Rejecting every non-canonical form makes decoding injective: input that
// decodes re-encodes to the same bytes.

import (
	"encoding/binary"
	"math"

	"repro/internal/stream"
)

// Writer appends primitive encodings to Buf.
type Writer struct {
	Buf []byte
}

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(v uint64) { w.Buf = binary.AppendUvarint(w.Buf, v) }

// Varint appends a signed (zig-zag) varint.
func (w *Writer) Varint(v int64) { w.Buf = binary.AppendVarint(w.Buf, v) }

// Int appends an int as a signed varint.
func (w *Writer) Int(v int) { w.Varint(int64(v)) }

// TS appends an event-time timestamp.
func (w *Writer) TS(ts stream.Timestamp) { w.Varint(int64(ts)) }

// Byte appends one raw byte.
func (w *Writer) Byte(b byte) { w.Buf = append(w.Buf, b) }

// Bool appends a boolean byte (0 or 1).
func (w *Writer) Bool(b bool) {
	if b {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
}

// Float appends a float64 as its IEEE-754 bits (fixed 8 bytes, little
// endian), preserving NaN payloads and signed zero exactly.
func (w *Writer) Float(f float64) {
	w.Buf = binary.LittleEndian.AppendUint64(w.Buf, math.Float64bits(f))
}

// String appends a length-prefixed raw string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.Buf = append(w.Buf, s...)
}

// ValueHead appends v's kind byte and, for every kind but string, the kind's
// payload. A string's payload is left to the caller — returned with
// isStr=true — because its encoding is layout-specific: raw in snapshots and
// journal records, interned on the wire.
func (w *Writer) ValueHead(v stream.Value) (s string, isStr bool) {
	k := v.Kind()
	w.Byte(byte(k))
	switch k {
	case stream.KindNull:
	case stream.KindInt:
		i, _ := v.AsInt()
		w.Varint(i)
	case stream.KindFloat:
		f, _ := v.AsFloat()
		w.Float(f)
	case stream.KindString:
		s, _ = v.AsString()
		return s, true
	case stream.KindBool:
		b, _ := v.AsBool()
		w.Bool(b)
	case stream.KindTime:
		ts, _ := v.AsTime()
		w.TS(ts)
	default:
		// Unreachable for values built by the engine; encode as null so no
		// layout ever carries an undecodable kind.
		w.Buf[len(w.Buf)-1] = byte(stream.KindNull)
	}
	return "", false
}

// Value appends one SQL value with a raw string payload.
func (w *Writer) Value(v stream.Value) {
	if s, ok := w.ValueHead(v); ok {
		w.String(s)
	}
}

// Values appends a length-prefixed value row.
func (w *Writer) Values(vals []stream.Value) {
	w.Uvarint(uint64(len(vals)))
	for _, v := range vals {
		w.Value(v)
	}
}

// Reader is a bounds-checked read cursor over one buffer.
type Reader struct {
	buf []byte
	off int
}

// Reset points the reader at the start of b.
func (r *Reader) Reset(b []byte) { r.buf, r.off = b, 0 }

// Remaining reports how many bytes are left unread.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Finish verifies the input was consumed exactly.
func (r *Reader) Finish() error {
	if n := r.Remaining(); n != 0 {
		return Corruptf("%d trailing bytes", n)
	}
	return nil
}

// Rest consumes and returns every remaining byte. The slice aliases the
// reader's buffer.
func (r *Reader) Rest() []byte {
	b := r.buf[r.off:]
	r.off = len(r.buf)
	return b
}

// Fixed consumes the next n bytes. The slice aliases the reader's buffer.
func (r *Reader) Fixed(n int) ([]byte, error) {
	if r.Remaining() < n {
		return nil, ErrTruncated
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b, nil
}

// varintLen validates the varint binary.Uvarint/Varint just measured at the
// cursor (n bytes, n <= 0 on failure) and consumes it.
func (r *Reader) varintLen(n int) error {
	switch {
	case n == 0:
		return ErrTruncated
	case n < 0:
		return Corruptf("varint overflows 64 bits")
	case n > 1 && r.buf[r.off+n-1] == 0:
		return Corruptf("non-minimal varint")
	}
	r.off += n
	return nil
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.off:])
	return v, r.varintLen(n)
}

// Varint reads a signed varint.
func (r *Reader) Varint() (int64, error) {
	v, n := binary.Varint(r.buf[r.off:])
	return v, r.varintLen(n)
}

// Int reads an int-sized signed varint.
func (r *Reader) Int() (int, error) {
	v, err := r.Varint()
	return int(v), err
}

// TS reads an event-time timestamp.
func (r *Reader) TS() (stream.Timestamp, error) {
	v, err := r.Varint()
	return stream.Timestamp(v), err
}

// Byte reads one raw byte.
func (r *Reader) Byte() (byte, error) {
	if r.off >= len(r.buf) {
		return 0, ErrTruncated
	}
	b := r.buf[r.off]
	r.off++
	return b, nil
}

// Bool reads a boolean byte.
func (r *Reader) Bool() (bool, error) {
	b, err := r.Byte()
	if err == nil && b > 1 {
		err = Corruptf("bad bool byte %d", b)
	}
	return b == 1, err
}

// Float reads a fixed 8-byte float64.
func (r *Reader) Float() (float64, error) {
	b, err := r.Fixed(8)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
}

// Len reads a string or collection length and screens it against the bytes
// actually remaining, so hostile lengths cannot trigger giant allocations.
func (r *Reader) Len() (int, error) {
	v, err := r.Uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(r.Remaining()) {
		return 0, Corruptf("length %d exceeds remaining input %d", v, r.Remaining())
	}
	return int(v), nil
}

// String reads a length-prefixed raw string.
func (r *Reader) String() (string, error) {
	n, err := r.Len()
	if err != nil {
		return "", err
	}
	s := string(r.buf[r.off : r.off+n])
	r.off += n
	return s, nil
}

// ValueHead reads one value's kind byte and, for every kind but string, its
// payload. For a string it returns isStr=true with the cursor at the
// payload, which the caller decodes the way its layout wrote it (see
// Writer.ValueHead).
func (r *Reader) ValueHead() (v stream.Value, isStr bool, err error) {
	k, err := r.Byte()
	if err != nil {
		return stream.Null, false, err
	}
	switch stream.Kind(k) {
	case stream.KindNull:
		return stream.Null, false, nil
	case stream.KindInt:
		i, err := r.Varint()
		return stream.Int(i), false, err
	case stream.KindFloat:
		f, err := r.Float()
		return stream.Float(f), false, err
	case stream.KindString:
		return stream.Null, true, nil
	case stream.KindBool:
		b, err := r.Bool()
		return stream.Bool(b), false, err
	case stream.KindTime:
		ts, err := r.TS()
		return stream.Time(ts), false, err
	default:
		return stream.Null, false, Corruptf("bad value kind %d", k)
	}
}

// Value reads one SQL value with a raw string payload.
func (r *Reader) Value() (stream.Value, error) {
	v, isStr, err := r.ValueHead()
	if isStr {
		var s string
		s, err = r.String()
		v = stream.Str(s)
	}
	return v, err
}

// Values reads a length-prefixed value row.
func (r *Reader) Values() ([]stream.Value, error) {
	n, err := r.Len()
	if err != nil {
		return nil, err
	}
	vals := make([]stream.Value, n)
	for i := range vals {
		if vals[i], err = r.Value(); err != nil {
			return nil, err
		}
	}
	return vals, nil
}
