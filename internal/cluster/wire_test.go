package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"time"

	"repro/internal/esl"
	"repro/internal/shard"
	"repro/internal/snapshot"
	"repro/internal/spec"
	"repro/internal/stream"
)

func ts(d int) stream.Timestamp { return stream.TS(time.Duration(d) * time.Second) }

// readOne validates the front of raw through frameReader, the single
// framing validator.
func readOne(raw []byte) (byte, []byte, error) {
	fr := frameReader{r: bytes.NewReader(raw)}
	return fr.next()
}

func TestFrameRoundtrip(t *testing.T) {
	payloads := [][]byte{nil, {}, {1}, []byte("hello cluster"), bytes.Repeat([]byte{0xAB}, 4096)}
	var buf []byte
	for i, p := range payloads {
		buf = appendFrame(buf, byte(i+1), p)
	}
	fr := frameReader{r: bytes.NewReader(buf)}
	for i, p := range payloads {
		typ, payload, err := fr.next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if typ != byte(i+1) {
			t.Fatalf("frame %d: type %d, want %d", i, typ, i+1)
		}
		if !bytes.Equal(payload, p) {
			t.Fatalf("frame %d: payload mismatch", i)
		}
	}
	if _, _, err := fr.next(); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
}

func TestDecodeFrameTruncated(t *testing.T) {
	full := appendFrame(nil, frameBatch, []byte("payload bytes"))
	if _, _, err := readOne(nil); err != io.EOF {
		t.Fatalf("empty input: got %v, want the clean-close io.EOF", err)
	}
	for cut := 1; cut < len(full); cut++ {
		_, _, err := readOne(full[:cut])
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d: got %v, want ErrTruncated", cut, err)
		}
	}
}

func TestDecodeFrameCorrupt(t *testing.T) {
	full := appendFrame(nil, frameBatch, []byte("payload bytes"))
	for i := 4; i < len(full); i++ { // every body/CRC byte position
		mut := append([]byte(nil), full...)
		mut[i] ^= 0x40
		_, _, err := readOne(mut)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: got %v, want ErrCorrupt", i, err)
		}
	}
	// Zero-length body is corrupt framing, not truncation.
	zero := binary.LittleEndian.AppendUint32(nil, 0)
	zero = append(zero, 0, 0, 0, 0)
	if _, _, err := readOne(zero); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("zero body: got %v, want ErrCorrupt", err)
	}
}

func TestDecodeFrameTooBig(t *testing.T) {
	raw := binary.LittleEndian.AppendUint32(nil, MaxFrame+1)
	raw = append(raw, bytes.Repeat([]byte{0}, 16)...)
	if _, _, err := readOne(raw); !errors.Is(err, ErrTooBig) {
		t.Fatalf("got %v, want ErrTooBig", err)
	}
}

func TestValueRoundtrip(t *testing.T) {
	vals := []stream.Value{
		stream.Null,
		stream.Int(0), stream.Int(-7), stream.Int(1 << 40),
		stream.Float(3.25), stream.Float(-0.5),
		stream.Str(""), stream.Str("tag-epc-0042"), stream.Str("tag-epc-0042"),
		stream.Bool(true), stream.Bool(false),
		stream.Time(ts(99)),
	}
	enc := newWireEnc()
	for _, v := range vals {
		enc.value(v)
	}
	dec := newWireDec()
	dec.Reset(enc.Buf)
	for i, want := range vals {
		got, err := dec.value()
		if err != nil {
			t.Fatalf("value %d: %v", i, err)
		}
		if !got.Equal(want) {
			t.Fatalf("value %d: got %v, want %v", i, got, want)
		}
	}
	if err := dec.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestInterningLockstep: the same string costs raw bytes once and a short id
// reference afterwards, across frame boundaries, on both ends.
func TestInterningLockstep(t *testing.T) {
	enc := newWireEnc()
	dec := newWireDec()
	names := []string{"readings", "R7", "readings", "R7", "readings", "tag-1", "R7"}
	var frames [][]byte
	for _, s := range names {
		enc.reset()
		enc.str(s)
		frames = append(frames, append([]byte(nil), enc.Buf...))
	}
	if len(frames[0]) <= len(frames[2]) {
		t.Fatalf("interned reference (%d bytes) should beat the raw string (%d bytes)",
			len(frames[2]), len(frames[0]))
	}
	for i, f := range frames {
		dec.Reset(f)
		got, err := dec.str()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got != names[i] {
			t.Fatalf("frame %d: got %q, want %q", i, got, names[i])
		}
		if err := dec.Finish(); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
}

func TestInternedReferenceOutOfRange(t *testing.T) {
	enc := newWireEnc()
	enc.Uvarint(42) // reference into an empty table
	dec := newWireDec()
	dec.Reset(enc.Buf)
	if _, err := dec.str(); !errors.Is(err, ErrProtocol) {
		t.Fatalf("got %v, want ErrProtocol", err)
	}
}

func TestLengthScreensAllocation(t *testing.T) {
	enc := newWireEnc()
	enc.Uvarint(1 << 40) // collection "length" far beyond the payload
	dec := newWireDec()
	dec.Reset(enc.Buf)
	if _, err := dec.Len(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

func TestBatchRoundtrip(t *testing.T) {
	schema, err := stream.NewSchema("readings",
		stream.Field{Name: "readerid"}, stream.Field{Name: "tagid"}, stream.Field{Name: "tagtime"})
	if err != nil {
		t.Fatal(err)
	}
	resolve := func(name string) (*stream.Schema, bool) {
		if name == "readings" {
			return schema, true
		}
		return nil, false
	}
	mk := func(at int, rd, tag string) stream.Item {
		tp, err := stream.NewTuple(schema, ts(at), stream.Str(rd), stream.Str(tag), stream.Time(ts(at)))
		if err != nil {
			t.Fatal(err)
		}
		return stream.Of(tp)
	}
	items := []stream.Item{
		mk(1, "R1", "t1"),
		stream.Heartbeat(ts(2)),
		mk(2, "R2", "t1"),
		mk(2, "R1", "t2"), // equal timestamps: delta 0
		stream.Heartbeat(ts(5)),
	}
	enc := newWireEnc()
	encodeBatch(enc, items)
	dec := newWireDec()
	dec.Reset(enc.Buf)
	got, err := decodeBatch(dec, resolve, nil, &tupleArena{})
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.Finish(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(items) {
		t.Fatalf("got %d items, want %d", len(got), len(items))
	}
	for i, it := range items {
		g := got[i]
		if g.IsHeartbeat() != it.IsHeartbeat() || g.TS != it.TS {
			t.Fatalf("item %d: got %+v, want %+v", i, g, it)
		}
		if it.IsHeartbeat() {
			continue
		}
		for j, v := range it.Tuple.Vals {
			if !g.Tuple.Vals[j].Equal(v) {
				t.Fatalf("item %d val %d: got %v, want %v", i, j, g.Tuple.Vals[j], v)
			}
		}
	}
}

func TestBatchUnknownStream(t *testing.T) {
	schema, _ := stream.NewSchema("ghost", stream.Field{Name: "a"})
	tp, _ := stream.NewTuple(schema, ts(1), stream.Null)
	enc := newWireEnc()
	encodeBatch(enc, []stream.Item{stream.Of(tp)})
	dec := newWireDec()
	dec.Reset(enc.Buf)
	_, err := decodeBatch(dec, func(string) (*stream.Schema, bool) { return nil, false }, nil, &tupleArena{})
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("got %v, want ErrProtocol", err)
	}
}

// TestBatchPayloadTruncated: every proper prefix of a batch payload decodes
// to a typed error, never a panic.
func TestBatchPayloadTruncated(t *testing.T) {
	schema, _ := stream.NewSchema("readings",
		stream.Field{Name: "readerid"}, stream.Field{Name: "tagid"})
	resolve := func(string) (*stream.Schema, bool) { return schema, true }
	tp, _ := stream.NewTuple(schema, ts(3), stream.Str("R1"), stream.Str("t9"))
	enc := newWireEnc()
	encodeBatch(enc, []stream.Item{stream.Of(tp), stream.Heartbeat(ts(4))})
	full := enc.Buf
	for cut := 0; cut < len(full); cut++ {
		dec := newWireDec()
		dec.Reset(full[:cut])
		if _, err := decodeBatch(dec, resolve, nil, &tupleArena{}); err == nil {
			// A prefix may parse fewer complete items only if finish() then
			// flags the remainder — but cutting mid-structure must error.
			if ferr := dec.Finish(); ferr == nil && cut != len(full) {
				t.Fatalf("cut at %d decoded cleanly", cut)
			}
		} else if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrProtocol) {
			t.Fatalf("cut at %d: untyped error %v", cut, err)
		}
	}
}

// TestRowsRecordTagRoundtrip (wire v3): polarity-tagged rows survive the
// Rows codec — assertion, retraction, tagged late final, and an untagged
// strict final that must stay tag-free.
func TestRowsRecordTagRoundtrip(t *testing.T) {
	names := []string{"v", "n"}
	mkRow := func(ts stream.Timestamp, v int64) esl.Row {
		return esl.Row{Names: names, Vals: []stream.Value{stream.Int(v), stream.Int(v + 1)}, TS: ts}
	}
	in := []shard.Event{
		{Slot: 0, Row: esl.TagRecord(mkRow(ts(1), 1), spec.Assert, 7, 0xabc)},
		{Slot: 0, Row: esl.TagRecord(mkRow(ts(2), 2), spec.Final, 8, 0)},
		{Slot: 0, Row: esl.TagRecord(mkRow(ts(1), 1), spec.Retract, 7, 0xabc)},
		{Slot: 0, Row: mkRow(ts(3), 3)}, // plain strict final
	}
	enc := newWireEnc()
	encodeRows(enc, in, map[int]*string{})
	dec := newWireDec()
	dec.Reset(enc.Buf)
	out, err := decodeRows(dec, func(string) (*stream.Schema, bool) { return nil, false }, map[int][]string{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d events, want %d", len(out), len(in))
	}
	for i := range in {
		wp, ws, wh := esl.RecordTags(in[i].Row)
		gp, gs, gh := esl.RecordTags(out[i].Row)
		if wp != gp || ws != gs || wh != gh {
			t.Fatalf("event %d tags: got (%v,%d,%x), want (%v,%d,%x)", i, gp, gs, gh, wp, ws, wh)
		}
		if out[i].Row.TS != in[i].Row.TS || len(out[i].Row.Vals) != len(in[i].Row.Vals) {
			t.Fatalf("event %d body diverged", i)
		}
	}
	if pol, seq, hash := esl.RecordTags(out[3].Row); pol != spec.Final || seq != 0 || hash != 0 {
		t.Fatalf("strict final grew tags: (%v,%d,%x)", pol, seq, hash)
	}
}

// TestPayloadFailureRules: wire payloads decode through the shared codec,
// so they follow its one rule per failure — a bool byte above 1 and a
// string length beyond the payload are ErrCorrupt (as in snapshots and the
// journal), input ending inside a primitive is ErrTruncated — and the wire
// sentinels are the codec's.
func TestPayloadFailureRules(t *testing.T) {
	cases := []struct {
		name string
		in   []byte
		read func(d *wireDec) error
		want error
	}{
		{"bool above 1", []byte{2}, func(d *wireDec) error { _, err := d.Bool(); return err }, ErrCorrupt},
		{"bool value above 1", []byte{byte(stream.KindBool), 2}, func(d *wireDec) error { _, err := d.value(); return err }, ErrCorrupt},
		{"raw string beyond payload", []byte{9, 'x'}, func(d *wireDec) error { _, err := d.String(); return err }, ErrCorrupt},
		{"interned string beyond payload", []byte{0, 9, 'x'}, func(d *wireDec) error { _, err := d.str(); return err }, ErrCorrupt},
		{"unknown value kind", []byte{0x7f}, func(d *wireDec) error { _, err := d.value(); return err }, ErrCorrupt},
		{"non-minimal varint", []byte{0x80, 0x00}, func(d *wireDec) error { _, err := d.Uvarint(); return err }, ErrCorrupt},
		{"varint cut", []byte{0x80}, func(d *wireDec) error { _, err := d.Varint(); return err }, ErrTruncated},
		{"float value cut", []byte{byte(stream.KindFloat), 1, 2}, func(d *wireDec) error { _, err := d.value(); return err }, ErrTruncated},
		{"hello magic cut", []byte("ESL"), func(d *wireDec) error { _, err := decodeHello(d); return err }, ErrTruncated},
		{"trailing payload", []byte{1, 2}, func(d *wireDec) error { _, err := decodeCkptReq(d); return err }, ErrCorrupt},
	}
	for _, c := range cases {
		dec := newWireDec()
		dec.Reset(c.in)
		err := c.read(dec)
		if !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
	if !errors.Is(ErrTruncated, snapshot.ErrTruncated) || !errors.Is(ErrCorrupt, snapshot.ErrCorrupt) {
		t.Fatal("wire sentinels must be the shared codec's")
	}
}
