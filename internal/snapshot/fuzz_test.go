package snapshot

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/stream"
)

// typedDecodeErr reports whether err is one of the codec's declared failure
// modes. Anything else escaping the decoder on hostile input is a bug.
func typedDecodeErr(err error) bool {
	return errors.Is(err, ErrTruncated) || errors.Is(err, ErrCorrupt) ||
		errors.Is(err, ErrVersion) || errors.Is(err, ErrStateMismatch)
}

// seedBlobs builds the seed corpus: a valid snapshot plus characteristic
// corruptions (truncation, bit flip, junk, empty). The same blobs are
// checked in under testdata/fuzz/FuzzDecoder (see TestGenerateSeedCorpus).
func seedBlobs() [][]byte {
	s, err := stream.NewSchema("s", stream.Field{Name: "a"}, stream.Field{Name: "b"})
	if err != nil {
		panic(err)
	}
	tu, err := stream.NewTuple(s, stream.TS(1), stream.Str("x"), stream.Int(7))
	if err != nil {
		panic(err)
	}
	enc := NewEncoder()
	enc.Uvarint(3)
	enc.Varint(-9)
	enc.Bool(true)
	enc.Float(2.5)
	enc.String("seed")
	enc.Values([]stream.Value{stream.Int(1), stream.Null, stream.Str("v")})
	enc.Tuple(tu)
	enc.Tuple(tu)
	enc.Tuple(nil)
	valid, err := enc.Bytes()
	if err != nil {
		panic(err)
	}
	trunc := valid[:len(valid)/2]
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x10
	// A structurally valid blob stamped with the previous format version:
	// keeps the version-negotiation rejection (this reader vs a snapshot of
	// the previous version) in the corpus permanently.
	stale := append([]byte(nil), valid...)
	stale[len(magic)] = Version - 1
	stale = fixupCRC(stale)
	return [][]byte{
		valid,
		trunc,
		flipped,
		[]byte("ESLSNP1\njunk after a valid magic"),
		{},
		stale,
	}
}

// FuzzDecoder: arbitrary input never panics the decoder and every failure
// is one of the typed sentinel errors. When framing validates, the body is
// drained through a mixed read script — every primitive reader must stay
// panic-free and typed too.
func FuzzDecoder(f *testing.F) {
	for _, blob := range seedBlobs() {
		f.Add(blob)
	}
	schema, err := stream.NewSchema("s", stream.Field{Name: "a"}, stream.Field{Name: "b"})
	if err != nil {
		f.Fatal(err)
	}
	resolve := func(name string) (*stream.Schema, bool) {
		if name == "s" {
			return schema, true
		}
		return nil, false
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := NewDecoderBytes(data, resolve)
		if err != nil {
			if !typedDecodeErr(err) {
				t.Fatalf("untyped decoder error: %v", err)
			}
			return
		}
		// Framing validated (CRC passed): read the body with a rotating
		// script so every primitive sees arbitrary bytes.
		for i := 0; dec.Remaining() > 0; i++ {
			switch i % 8 {
			case 0:
				_, err = dec.Uvarint()
			case 1:
				_, err = dec.Varint()
			case 2:
				_, err = dec.Bool()
			case 3:
				_, err = dec.Float()
			case 4:
				_, err = dec.String()
			case 5:
				_, err = dec.Value()
			case 6:
				_, err = dec.Values()
			case 7:
				_, err = dec.Tuple()
			}
			if err != nil {
				if !typedDecodeErr(err) {
					t.Fatalf("untyped read error: %v", err)
				}
				return
			}
		}
		if err := dec.Finish(); err != nil && !typedDecodeErr(err) {
			t.Fatalf("untyped finish error: %v", err)
		}
	})
}

// itemSeeds builds the FuzzDecodeItem seed corpus: journal record bodies
// for a tuple of every value kind, a heartbeat, a wrong-arity tuple (the
// journal keeps malformed rows for re-screening), and characteristic
// failures.
func itemSeeds() [][]byte {
	s, err := stream.NewSchema("s", stream.Field{Name: "a"}, stream.Field{Name: "b"})
	if err != nil {
		panic(err)
	}
	kinds := &stream.Tuple{Schema: s, TS: stream.TS(2), Vals: []stream.Value{stream.Null, stream.Int(-5),
		stream.Float(1.5), stream.Str("epc"), stream.Bool(true), stream.Time(stream.TS(3))}}
	pair := &stream.Tuple{Schema: s, TS: stream.TS(1), Vals: []stream.Value{stream.Str("r1"), stream.Int(7)}}
	ghost, err := stream.NewSchema("ghost", stream.Field{Name: "a"})
	if err != nil {
		panic(err)
	}
	valid := EncodeItem(stream.Item{Tuple: pair, TS: stream.TS(4)})
	return [][]byte{
		valid,
		EncodeItem(stream.Of(kinds)),
		EncodeItem(stream.Heartbeat(stream.TS(9))),
		EncodeItem(stream.Of(&stream.Tuple{Schema: s, TS: stream.TS(1), Vals: []stream.Value{stream.Str("only")}})),
		EncodeItem(stream.Of(&stream.Tuple{Schema: ghost, TS: stream.TS(1), Vals: []stream.Value{stream.Null}})),
		valid[:len(valid)-1],
		append(append([]byte(nil), valid...), 0),
		{2, 0},
		{},
	}
}

// FuzzDecodeItem: arbitrary journal record bodies never panic the item
// decoder, every failure is a typed error, and a body that decodes
// re-encodes to exactly the same bytes (decoding is canonical).
func FuzzDecodeItem(f *testing.F) {
	for _, body := range itemSeeds() {
		f.Add(body)
	}
	schema, err := stream.NewSchema("s", stream.Field{Name: "a"}, stream.Field{Name: "b"})
	if err != nil {
		f.Fatal(err)
	}
	resolve := func(name string) (*stream.Schema, bool) { return schema, name == "s" }
	f.Fuzz(func(t *testing.T, body []byte) {
		it, err := DecodeItem(body, resolve)
		if err != nil {
			if !typedDecodeErr(err) {
				t.Fatalf("untyped item error: %v", err)
			}
			return
		}
		if re := EncodeItem(it); !bytes.Equal(re, body) {
			t.Fatalf("re-encode mismatch:\n in %x\nout %x", body, re)
		}
	})
}

// segmentSeeds builds the FuzzJournalSegment seed corpus: one segment file
// written by the journal itself, then torn, bit-flipped, zero-length and
// mis-tagged variants.
func segmentSeeds() [][]byte {
	dir, err := os.MkdirTemp("", "seg-seed")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	j, err := OpenJournal(dir, JournalConfig{})
	if err != nil {
		panic(err)
	}
	s, err := stream.NewSchema("s", stream.Field{Name: "a"}, stream.Field{Name: "b"})
	if err != nil {
		panic(err)
	}
	for _, body := range itemSeeds()[:3] {
		it, err := DecodeItem(body, func(string) (*stream.Schema, bool) { return s, true })
		if err != nil {
			panic(err)
		}
		if err := j.AppendItemAt(j.LastLSN()+1, it); err != nil {
			panic(err)
		}
	}
	if err := j.Close(); err != nil {
		panic(err)
	}
	valid, err := os.ReadFile(filepath.Join(dir, "journal-00000000.seg"))
	if err != nil {
		panic(err)
	}
	flipped := append([]byte(nil), valid...)
	flipped[len(journalMagic)+9] ^= 0x20
	zeroLen := append(append([]byte(nil), valid...), make([]byte, 8)...)
	return [][]byte{
		valid,
		valid[:len(valid)-3],
		flipped,
		zeroLen,
		[]byte(journalMagic),
		[]byte("ESLJRN0\n"),
		{},
	}
}

// FuzzJournalSegment: a segment file of arbitrary bytes never panics
// replay or reopen. As the log tail, a torn or corrupt record ends replay
// cleanly (only a bad segment magic is an error) and OpenJournal resumes
// after the valid prefix; as a segment before the tail, the same torn
// record is ErrCorrupt.
func FuzzJournalSegment(f *testing.F) {
	for _, seg := range segmentSeeds() {
		f.Add(seg)
	}
	f.Fuzz(func(t *testing.T, seg []byte) {
		replay := func(dir string) ([]uint64, error) {
			var lsns []uint64
			err := Replay(dir, 0, func(lsn uint64, _ []byte) error {
				lsns = append(lsns, lsn)
				return nil
			})
			return lsns, err
		}
		badMagic := !bytes.HasPrefix(seg, []byte(journalMagic))

		// Tail segment.
		tail := t.TempDir()
		if err := os.WriteFile(filepath.Join(tail, "journal-00000000.seg"), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		lsns, err := replay(tail)
		if badMagic {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("bad segment magic: err = %v, want ErrCorrupt", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("tail segment: replay must end cleanly at a torn record, got %v", err)
		}
		j, err := OpenJournal(tail, JournalConfig{})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		next := j.LastLSN() + 1
		if next != 0 { // LSN space exhausted: nothing can follow
			if err := j.AppendItemAt(next, stream.Heartbeat(1)); err != nil {
				t.Fatal(err)
			}
			lsns = append(lsns, next)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		after, err := replay(tail)
		if err != nil || fmt.Sprint(after) != fmt.Sprint(lsns) {
			t.Fatalf("after reopen + append: replay %v, %v; want %v", after, err, lsns)
		}

		// The same bytes before a valid tail segment.
		mid := t.TempDir()
		if err := os.WriteFile(filepath.Join(mid, "journal-00000000.seg"), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, torn, err := scanSegment(filepath.Join(mid, "journal-00000000.seg"), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(mid, "journal-00000001.seg"), []byte(journalMagic), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = replay(mid)
		if torn && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("torn record before the log tail: err = %v, want ErrCorrupt", err)
		}
		if !torn && err != nil {
			t.Fatalf("intact segment before the tail: %v", err)
		}
	})
}

// TestGenerateSeedCorpus writes the seed corpora of the codec and journal
// fuzz targets into testdata/fuzz. Run with GEN_FUZZ_CORPUS=1 after
// changing a seed builder; committed corpus files keep `go test -fuzz`
// seeded identically everywhere.
func TestGenerateSeedCorpus(t *testing.T) {
	if os.Getenv("GEN_FUZZ_CORPUS") == "" {
		t.Skip("set GEN_FUZZ_CORPUS=1 to regenerate testdata/fuzz")
	}
	for target, seeds := range map[string][][]byte{
		"FuzzDecoder":        seedBlobs(),
		"FuzzDecodeItem":     itemSeeds(),
		"FuzzJournalSegment": segmentSeeds(),
	} {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, blob := range seeds {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", blob)
			name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
			if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}
