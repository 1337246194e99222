package snapshot

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/stream"
)

func testSchema(t *testing.T) *stream.Schema {
	t.Helper()
	s, err := stream.NewSchema("s", stream.Field{Name: "a"}, stream.Field{Name: "b"})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func resolverFor(s *stream.Schema) SchemaResolver {
	return func(name string) (*stream.Schema, bool) {
		if name == s.Name() {
			return s, true
		}
		return nil, false
	}
}

// buildSnapshot writes one blob exercising every field type, including a
// tuple referenced twice (interning) and a nil tuple reference.
func buildSnapshot(t *testing.T, s *stream.Schema) []byte {
	t.Helper()
	tu, err := stream.NewTuple(s, stream.TS(5*time.Second), stream.Str("x"), stream.Int(7))
	if err != nil {
		t.Fatal(err)
	}
	enc := NewEncoder()
	enc.Uvarint(42)
	enc.Varint(-42)
	enc.Int(7)
	enc.Bool(true)
	enc.Bool(false)
	enc.Float(math.Pi)
	enc.Float(math.Copysign(0, -1))
	enc.String("hello")
	enc.String("")
	enc.TS(stream.TS(3 * time.Second))
	enc.Value(stream.Null)
	enc.Values([]stream.Value{stream.Int(1), stream.Float(2.5), stream.Str("v"),
		stream.Bool(true), stream.Time(stream.TS(time.Second)), stream.Null})
	enc.Tuple(tu)
	enc.Tuple(tu) // same pointer: must intern to the same id
	enc.Tuple(nil)
	blob, err := enc.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// decodeSnapshot reads the structure buildSnapshot wrote and re-encodes it,
// returning the re-encoded blob for byte-identity checks.
func decodeSnapshot(t *testing.T, blob []byte, s *stream.Schema) []byte {
	t.Helper()
	dec, err := NewDecoderBytes(blob, resolverFor(s))
	if err != nil {
		t.Fatalf("decode header: %v", err)
	}
	enc := NewEncoder()
	u, err := dec.Uvarint()
	if err != nil || u != 42 {
		t.Fatalf("uvarint = %d, %v", u, err)
	}
	enc.Uvarint(u)
	v, err := dec.Varint()
	if err != nil || v != -42 {
		t.Fatalf("varint = %d, %v", v, err)
	}
	enc.Varint(v)
	i, err := dec.Int()
	if err != nil || i != 7 {
		t.Fatalf("int = %d, %v", i, err)
	}
	enc.Int(i)
	for _, want := range []bool{true, false} {
		b, err := dec.Bool()
		if err != nil || b != want {
			t.Fatalf("bool = %v, %v", b, err)
		}
		enc.Bool(b)
	}
	f, err := dec.Float()
	if err != nil || f != math.Pi {
		t.Fatalf("float = %v, %v", f, err)
	}
	enc.Float(f)
	nz, err := dec.Float()
	if err != nil || !math.Signbit(nz) || nz != 0 {
		t.Fatalf("negative zero = %v, %v", nz, err)
	}
	enc.Float(nz)
	for _, want := range []string{"hello", ""} {
		str, err := dec.String()
		if err != nil || str != want {
			t.Fatalf("string = %q, %v", str, err)
		}
		enc.String(str)
	}
	ts, err := dec.TS()
	if err != nil || ts != stream.TS(3*time.Second) {
		t.Fatalf("ts = %v, %v", ts, err)
	}
	enc.TS(ts)
	val, err := dec.Value()
	if err != nil || !val.IsNull() {
		t.Fatalf("value = %v, %v", val, err)
	}
	enc.Value(val)
	vals, err := dec.Values()
	if err != nil || len(vals) != 6 {
		t.Fatalf("values = %v, %v", vals, err)
	}
	enc.Values(vals)
	t1, err := dec.Tuple()
	if err != nil || t1 == nil {
		t.Fatalf("tuple = %v, %v", t1, err)
	}
	t2, err := dec.Tuple()
	if err != nil || t2 != t1 {
		t.Fatalf("interned tuple: second read %p, first %p (%v)", t2, t1, err)
	}
	tnil, err := dec.Tuple()
	if err != nil || tnil != nil {
		t.Fatalf("nil tuple ref = %v, %v", tnil, err)
	}
	enc.Tuple(t1)
	enc.Tuple(t2)
	enc.Tuple(tnil)
	if err := dec.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
	out, err := enc.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCodecRoundTripByteIdentical: encode → decode → encode is the identity
// on bytes, the determinism contract every engine snapshot relies on.
func TestCodecRoundTripByteIdentical(t *testing.T) {
	s := testSchema(t)
	blob := buildSnapshot(t, s)
	re := decodeSnapshot(t, blob, s)
	if !bytes.Equal(blob, re) {
		t.Fatalf("re-encode differs: %d bytes vs %d", len(re), len(blob))
	}
	// And again, off the re-encoded blob.
	if re2 := decodeSnapshot(t, re, s); !bytes.Equal(re, re2) {
		t.Fatal("third generation differs")
	}
}

// TestCodecTruncation: every proper prefix fails with a typed error, never
// a panic, and never decodes successfully.
func TestCodecTruncation(t *testing.T) {
	s := testSchema(t)
	blob := buildSnapshot(t, s)
	for n := 0; n < len(blob); n++ {
		dec, err := NewDecoderBytes(blob[:n], resolverFor(s))
		if err == nil {
			// Header parsed; the CRC over a truncated payload must have
			// failed, so reaching here is a bug.
			t.Fatalf("prefix of %d/%d bytes decoded a header: %v", n, len(blob), dec)
		}
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("prefix %d: err = %v, want ErrTruncated or ErrCorrupt", n, err)
		}
	}
}

// TestCodecBitFlips: flipping any single byte is caught by the checksum (or
// the magic check) before any structure is trusted.
func TestCodecBitFlips(t *testing.T) {
	s := testSchema(t)
	blob := buildSnapshot(t, s)
	for i := range blob {
		mut := append([]byte(nil), blob...)
		mut[i] ^= 0x40
		_, err := NewDecoderBytes(mut, resolverFor(s))
		if err == nil {
			t.Fatalf("bit flip at byte %d went undetected", i)
		}
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
			t.Fatalf("bit flip at byte %d: err = %v, want typed corruption", i, err)
		}
	}
}

// TestCodecVersionCheck: a bumped version byte (with a fixed-up CRC) is
// rejected with ErrVersion.
func TestCodecVersionCheck(t *testing.T) {
	s := testSchema(t)
	enc := NewEncoder()
	enc.Uvarint(1)
	blob, err := enc.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	// Byte right after the magic is the version uvarint.
	mut := append([]byte(nil), blob...)
	mut[len(magic)] = Version + 1
	mut = fixupCRC(mut)
	if _, err := NewDecoderBytes(mut, resolverFor(s)); !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
}

// TestCodecRejectsOlderVersions: the v4 reader refuses v2 and v3 snapshots
// (the speculation section changed the layout) with a typed error whose
// message names both the snapshot's version and the decoder's.
func TestCodecRejectsOlderVersions(t *testing.T) {
	s := testSchema(t)
	enc := NewEncoder()
	enc.Uvarint(1)
	blob, err := enc.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	for _, old := range []byte{2, 3} {
		mut := append([]byte(nil), blob...)
		mut[len(magic)] = old
		mut = fixupCRC(mut)
		_, err := NewDecoderBytes(mut, resolverFor(s))
		if !errors.Is(err, ErrVersion) {
			t.Fatalf("v%d snapshot: err = %v, want ErrVersion", old, err)
		}
		msg := err.Error()
		if !strings.Contains(msg, fmt.Sprintf("v%d", old)) || !strings.Contains(msg, fmt.Sprintf("v%d", Version)) {
			t.Fatalf("v%d snapshot: error %q must name both the snapshot and decoder versions", old, msg)
		}
	}
}

// TestCodecUnknownStream: a tuple table referencing a stream the resolver
// does not know is a state mismatch, not a crash.
func TestCodecUnknownStream(t *testing.T) {
	s := testSchema(t)
	blob := buildSnapshot(t, s)
	none := func(string) (*stream.Schema, bool) { return nil, false }
	if _, err := NewDecoderBytes(blob, none); !errors.Is(err, ErrStateMismatch) {
		t.Fatalf("err = %v, want ErrStateMismatch", err)
	}
}

// TestCodecTrailingBytes: Finish rejects an underconsumed body.
func TestCodecTrailingBytes(t *testing.T) {
	s := testSchema(t)
	enc := NewEncoder()
	enc.Uvarint(1)
	enc.Uvarint(2)
	blob, err := enc.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoderBytes(blob, resolverFor(s))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Uvarint(); err != nil {
		t.Fatal(err)
	}
	if err := dec.Finish(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("finish with unread body: err = %v, want ErrCorrupt", err)
	}
}

// fixupCRC recomputes the trailing checksum after a deliberate mutation.
func fixupCRC(blob []byte) []byte {
	payload := blob[len(magic) : len(blob)-4]
	crc := crc32.ChecksumIEEE(payload)
	out := append([]byte(nil), blob...)
	out[len(out)-4] = byte(crc)
	out[len(out)-3] = byte(crc >> 8)
	out[len(out)-2] = byte(crc >> 16)
	out[len(out)-1] = byte(crc >> 24)
	return out
}

// TestReaderFailureRules pins one typed error per decode failure, for every
// layout built on Reader (snapshot bodies, journal records, wire payloads):
// input ending inside a primitive is ErrTruncated; a declared length beyond
// the remaining input, and every byte sequence no Writer produces, is
// ErrCorrupt.
func TestReaderFailureRules(t *testing.T) {
	overflow := append(bytes.Repeat([]byte{0xff}, 10), 0x01)
	cases := []struct {
		name string
		in   []byte
		read func(r *Reader) error
		want error
	}{
		{"uvarint empty", nil, func(r *Reader) error { _, err := r.Uvarint(); return err }, ErrTruncated},
		{"uvarint cut", []byte{0x80}, func(r *Reader) error { _, err := r.Uvarint(); return err }, ErrTruncated},
		{"uvarint non-minimal", []byte{0x80, 0x00}, func(r *Reader) error { _, err := r.Uvarint(); return err }, ErrCorrupt},
		{"uvarint overflow", overflow, func(r *Reader) error { _, err := r.Uvarint(); return err }, ErrCorrupt},
		{"varint non-minimal", []byte{0x81, 0x00}, func(r *Reader) error { _, err := r.Varint(); return err }, ErrCorrupt},
		{"byte empty", nil, func(r *Reader) error { _, err := r.Byte(); return err }, ErrTruncated},
		{"bool empty", nil, func(r *Reader) error { _, err := r.Bool(); return err }, ErrTruncated},
		{"bool above 1", []byte{2}, func(r *Reader) error { _, err := r.Bool(); return err }, ErrCorrupt},
		{"float cut", make([]byte, 7), func(r *Reader) error { _, err := r.Float(); return err }, ErrTruncated},
		{"fixed cut", []byte{1, 2}, func(r *Reader) error { _, err := r.Fixed(4); return err }, ErrTruncated},
		{"len beyond input", []byte{5, 'a'}, func(r *Reader) error { _, err := r.Len(); return err }, ErrCorrupt},
		{"string beyond input", []byte{5, 'a', 'b'}, func(r *Reader) error { _, err := r.String(); return err }, ErrCorrupt},
		{"value empty", nil, func(r *Reader) error { _, err := r.Value(); return err }, ErrTruncated},
		{"value bad kind", []byte{99}, func(r *Reader) error { _, err := r.Value(); return err }, ErrCorrupt},
		{"value bool above 1", []byte{byte(stream.KindBool), 7}, func(r *Reader) error { _, err := r.Value(); return err }, ErrCorrupt},
		{"values beyond input", []byte{3, 0}, func(r *Reader) error { _, err := r.Values(); return err }, ErrCorrupt},
		{"trailing bytes", []byte{1}, func(r *Reader) error { return r.Finish() }, ErrCorrupt},
	}
	for _, c := range cases {
		var r Reader
		r.Reset(c.in)
		if err := c.read(&r); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

// TestWriterReaderRoundTrip: every primitive Writer appends reads back
// through Reader with nothing left over.
func TestWriterReaderRoundTrip(t *testing.T) {
	var w Writer
	w.Uvarint(1 << 40)
	w.Varint(-3)
	w.Byte(0xfe)
	w.Bool(true)
	w.Float(math.Inf(-1))
	w.String("raw")
	w.Values([]stream.Value{stream.Null, stream.Int(-1), stream.Float(0.5), stream.Str("s"),
		stream.Bool(false), stream.Time(stream.TS(time.Second))})
	var r Reader
	r.Reset(w.Buf)
	u, _ := r.Uvarint()
	v, _ := r.Varint()
	b, _ := r.Byte()
	bo, _ := r.Bool()
	f, _ := r.Float()
	s, _ := r.String()
	vals, err := r.Values()
	if err != nil || u != 1<<40 || v != -3 || b != 0xfe || !bo || !math.IsInf(f, -1) || s != "raw" || len(vals) != 6 {
		t.Fatalf("round trip = %d %d %x %v %v %q %v, %v", u, v, b, bo, f, s, vals, err)
	}
	if got, _ := vals[3].AsString(); got != "s" {
		t.Fatalf("string value = %q", got)
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}
