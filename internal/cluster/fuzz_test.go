package cluster

// Satellite: fuzzing the wire codec. The contract under test is the one the
// package doc promises — malformed frames (truncated, bit-flipped,
// oversized, hostile lengths) produce typed errors and never panic or
// allocate beyond what the input could justify. Seed corpus lives in
// testdata/fuzz/FuzzDecodeFrame and the seeds below reconstruct the
// interesting shapes programmatically so the fuzzer starts from valid
// frames of every type.

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/esl"
	"repro/internal/shard"
	"repro/internal/spec"
	"repro/internal/stream"
)

// fuzzResolve accepts any stream name, as a hostile payload could name
// anything; the schema is what an engine with a three-column stream has.
func fuzzResolve() func(string) (*stream.Schema, bool) {
	schema, err := stream.NewSchema("readings",
		stream.Field{Name: "readerid"}, stream.Field{Name: "tagid"}, stream.Field{Name: "tagtime"})
	if err != nil {
		panic(err)
	}
	return func(string) (*stream.Schema, bool) { return schema, true }
}

func FuzzDecodeFrame(f *testing.F) {
	// Valid frames of every payload-bearing type.
	enc := newWireEnc()
	encodeHello(enc, 1)
	f.Add(appendFrame(nil, frameHello, enc.Buf))
	enc.reset()
	encodeHelloAck(enc, DefaultCredit, true)
	f.Add(appendFrame(nil, frameHelloAck, enc.Buf))
	enc.reset()
	enc.String("CREATE STREAM readings(readerid, tagid, tagtime);")
	f.Add(appendFrame(nil, frameExec, enc.Buf))
	enc.reset()
	encodeRegister(enc, 0, "q1", "SELECT tagid FROM readings", true)
	f.Add(appendFrame(nil, frameRegister, enc.Buf))
	enc.reset()
	encodeSubscribe(enc, 1, "readings")
	f.Add(appendFrame(nil, frameSub, enc.Buf))

	schema, _ := stream.NewSchema("readings",
		stream.Field{Name: "readerid"}, stream.Field{Name: "tagid"}, stream.Field{Name: "tagtime"})
	tp, _ := stream.NewTuple(schema, ts(1), stream.Str("R1"), stream.Str("t1"), stream.Time(ts(1)))
	enc.reset()
	encodeBatch(enc, []stream.Item{stream.Of(tp), stream.Heartbeat(ts(2))})
	f.Add(appendFrame(nil, frameBatch, enc.Buf))

	enc.reset()
	encodeRows(enc, []shard.Event{{Slot: 0, Tup: tp}}, map[int]*string{})
	f.Add(appendFrame(nil, frameRows, enc.Buf))

	// Polarity-tagged rows (wire v3): an assertion and its retraction.
	enc.reset()
	specRow := esl.Row{Names: []string{"n"}, Vals: []stream.Value{stream.Int(1)}, TS: ts(4)}
	encodeRows(enc, []shard.Event{
		{Slot: 0, Row: esl.TagRecord(specRow, spec.Assert, 1, 0xfeed)},
		{Slot: 0, Row: esl.TagRecord(specRow, spec.Retract, 1, 0xfeed)},
	}, map[int]*string{})
	f.Add(appendFrame(nil, frameRows, enc.Buf))

	enc.reset()
	encodeAck(enc, 4096, ts(3))
	f.Add(appendFrame(nil, frameAck, enc.Buf))
	enc.reset()
	encodeDrainAck(enc, ts(9), NodeCounters{Tuples: 7, Beats: 2, Rows: 3})
	f.Add(appendFrame(nil, frameDrainAck, enc.Buf))

	// Availability-layer frames: origin wrapper, checkpoint request, and a
	// shipped snapshot (opaque blob trailer).
	enc.reset()
	encodeFor(enc, 2, frameBatch)
	encodeBatch(enc, []stream.Item{stream.Of(tp)})
	f.Add(appendFrame(nil, frameFor, enc.Buf))
	enc.reset()
	encodeFor(enc, 0, frameCkptReq)
	encodeCkptReq(enc, 42)
	f.Add(appendFrame(nil, frameFor, enc.Buf))
	enc.reset()
	encodeFor(enc, 1, frameCkpt)
	encodeSnap(enc, 7, NodeCounters{Tuples: 9, Beats: 1, Rows: 4}, []byte("snapshot-bytes"))
	f.Add(appendFrame(nil, frameFor, enc.Buf))

	// Degenerate shapes.
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})                            // short header
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 1, 2, 3, 4}) // absurd length
	f.Add(appendFrame(nil, frameBye, nil)[:5])        // truncated body
	corrupt := appendFrame(nil, frameBatch, []byte{1, 2, 3})
	corrupt[len(corrupt)-1] ^= 0xFF // bad CRC
	f.Add(corrupt)

	resolve := fuzzResolve()
	f.Fuzz(func(t *testing.T, raw []byte) {
		fr := frameReader{r: bytes.NewReader(raw)}
		typ, payload, err := fr.next()
		if err != nil {
			if err == io.EOF && len(raw) == 0 {
				return // a clean close between frames
			}
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTooBig) {
				t.Fatalf("untyped framing error: %v", err)
			}
			return
		}
		n := 4 + 1 + len(payload) + 4
		if n > len(raw) {
			t.Fatalf("frame accounting: %d-byte frame from %d bytes of input", n, len(raw))
		}
		// A structurally valid frame must re-encode to the same bytes.
		if re := appendFrame(nil, typ, payload); !bytes.Equal(re, raw[:n]) {
			t.Fatalf("re-encode mismatch")
		}

		// Drive the payload decoders the receiving end would run. Fresh
		// decoder per attempt: interning state must not leak between
		// unrelated hostile frames.
		check := func(err error) {
			if err != nil && !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) &&
				!errors.Is(err, ErrTooBig) && !errors.Is(err, ErrProtocol) && !errors.Is(err, ErrVersion) {
				t.Fatalf("untyped payload error for frame type %d: %v", typ, err)
			}
		}
		dec := newWireDec()
		dec.Reset(payload)
		switch typ {
		case frameHello:
			_, err := decodeHello(dec)
			check(err)
		case frameHelloAck:
			_, _, err := decodeHelloAck(dec)
			check(err)
		case frameExec, frameError:
			_, err := dec.String()
			check(err)
		case frameRegister:
			_, _, _, _, err := decodeRegister(dec)
			check(err)
		case frameSub:
			_, _, err := decodeSubscribe(dec)
			check(err)
		case frameBatch:
			_, err := decodeBatch(dec, resolve, nil, &tupleArena{})
			check(err)
		case frameRows:
			_, err := decodeRows(dec, resolve, map[int][]string{})
			check(err)
		case frameAck:
			_, _, err := decodeAck(dec)
			check(err)
		case frameDrainAck:
			_, _, err := decodeDrainAck(dec)
			check(err)
		case frameFor:
			_, inner, err := decodeFor(dec)
			if err != nil {
				check(err)
				break
			}
			switch inner {
			case frameBatch:
				_, err := decodeBatch(dec, resolve, nil, &tupleArena{})
				check(err)
			case frameRows:
				_, err := decodeRows(dec, resolve, map[int][]string{})
				check(err)
			case frameCkptReq:
				_, err := decodeCkptReq(dec)
				check(err)
			case frameCkpt, frameRestore:
				_, _, _, err := decodeSnap(dec)
				check(err)
			}
		case frameCkptReq:
			_, err := decodeCkptReq(dec)
			check(err)
		case frameCkpt:
			_, _, _, err := decodeSnap(dec)
			check(err)
		}
	})
}
