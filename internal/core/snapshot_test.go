package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/snapshot"
	"repro/internal/stream"
)

func resolveQC(name string) (*stream.Schema, bool) {
	s, ok := qcSchema[name]
	return s, ok
}

// reopen renders an encoder's body as a snapshot and opens it for Load.
func reopen(t testing.TB, enc *snapshot.Encoder) *snapshot.Decoder {
	t.Helper()
	raw, err := enc.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := snapshot.NewDecoderBytes(raw, resolveQC)
	if err != nil {
		t.Fatal(err)
	}
	return dec
}

func saveBody(m *Matcher) []byte {
	enc := snapshot.NewEncoder()
	m.Save(enc)
	return enc.Buf
}

// A RECENT chain restored with fewer groups than the pattern has steps is a
// state mismatch, not a panic on the next push.
func TestLoadRejectsChainGroupCount(t *testing.T) {
	enc := snapshot.NewEncoder()
	enc.TS(0)
	enc.Bool(false) // unpartitioned
	enc.Uvarint(0)  // RECENT keeps no history buffers
	enc.Uvarint(2)  // chains for the one- and two-step prefixes
	enc.Bool(true)
	enc.Value(stream.Null)
	enc.Uvarint(1) // one group, for a three-step pattern
	enc.Uvarint(1)
	enc.Tuple(mk("A1", time.Second, "s"))
	enc.Bool(false)
	enc.Uvarint(0) // no timers
	m := MustMatcher(seqDef(ModeRecent, "A1", "A2", "A3"))
	if err := m.Load(reopen(t, enc)); !errors.Is(err, snapshot.ErrStateMismatch) {
		t.Fatalf("Load = %v, want ErrStateMismatch", err)
	}
}

// An exception run saved for a two-step pattern does not load into a
// three-step one.
func TestLoadRejectsExceptionGroupCount(t *testing.T) {
	def := clinicDef(ModeConsecutive)
	def.Steps = def.Steps[:2]
	short := MustExceptionMatcher(def)
	pushEx(t, short, mk("A1", time.Minute, "s"))
	enc := snapshot.NewEncoder()
	short.Save(enc)
	m := MustExceptionMatcher(clinicDef(ModeConsecutive))
	if err := m.Load(reopen(t, enc)); !errors.Is(err, snapshot.ErrStateMismatch) {
		t.Fatalf("Load = %v, want ErrStateMismatch", err)
	}
}

// Completion levels outside the pattern, or that disagree with the bound
// groups, are corrupt input.
func TestLoadRejectsExceptionLevel(t *testing.T) {
	for _, tc := range []struct {
		name   string
		run    bool
		groups int // bound leading groups
		cur    int
	}{
		{"level beyond pattern", true, 2, 7},
		{"level without run", false, 0, 2},
		{"run at level zero", true, 0, 0},
		{"level past bound groups", true, 1, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			enc := snapshot.NewEncoder()
			enc.TS(0)
			enc.Bool(false)
			enc.Bool(tc.run)
			if tc.run {
				enc.Value(stream.Null)
				enc.Uvarint(3)
				for i := 0; i < 3; i++ {
					if i < tc.groups {
						enc.Uvarint(1)
						enc.Tuple(mk(fmt.Sprintf("A%d", i+1), time.Duration(i+1)*time.Minute, "s"))
					} else {
						enc.Uvarint(0)
					}
				}
			}
			enc.Int(tc.cur)
			enc.Uvarint(0)
			m := MustExceptionMatcher(clinicDef(ModeConsecutive))
			if err := m.Load(reopen(t, enc)); !errors.Is(err, snapshot.ErrCorrupt) {
				t.Fatalf("Load = %v, want ErrCorrupt", err)
			}
		})
	}
}

// Same-deadline timers fire in schedule order, not partition order, after
// a restore — and the restored matcher re-saves the same bytes.
func TestTimerOrderSurvivesRestore(t *testing.T) {
	def := clinicDef(ModeConsecutive)
	for i := range def.Steps {
		def.Steps[i].Key = func(tu *stream.Tuple) stream.Value { return tu.Field("tagid") }
	}
	// Schedule the higher-hashing key first, so schedule order is the
	// reverse of the order Save writes partitions in.
	first, second := "alice", "bob"
	if stream.Str(first).Hash() < stream.Str(second).Hash() {
		first, second = second, first
	}
	orig := MustExceptionMatcher(def)
	pushEx(t, orig, mk("A1", 0, first))
	pushEx(t, orig, mk("A1", 0, second)) // same 1h deadline
	pushEx(t, orig, mk("A1", time.Minute, "carol"))
	pushEx(t, orig, mk("A2", 2*time.Minute, first))

	saved := saveBody(orig.m)
	enc := snapshot.NewEncoder()
	orig.Save(enc)
	restored := MustExceptionMatcher(def)
	if err := restored.Load(reopen(t, enc)); err != nil {
		t.Fatal(err)
	}
	if again := saveBody(restored.m); !bytes.Equal(again, saved) {
		t.Fatalf("re-save differs:\n got %x\nwant %x", again, saved)
	}

	keys := func(exs []*Exception) []string {
		var out []string
		for _, x := range exs {
			out = append(out, fmt.Sprintf("%s@%s", x.Partial.Key, x.TS))
		}
		return out
	}
	want := keys(orig.Advance(stream.TS(2 * time.Hour)))
	got := keys(restored.Advance(stream.TS(2 * time.Hour)))
	if len(want) != 3 || want[0] != first+"@1h0m0s" || want[1] != second+"@1h0m0s" {
		t.Fatalf("uninterrupted firing order = %v", want)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("restored firing order = %v, want %v", got, want)
	}
}

// fuzzShapes are the matcher shapes FuzzMatcherLoad loads into: the four
// pairing modes × {plain, star} × {single, partitioned} over SEQ, plus the
// CONSECUTIVE and RECENT exception automata, single and partitioned, and a
// partitioned UNRESTRICTED SEQ under EXPIRE AFTER (stamped chain bodies).
type fuzzShape struct {
	def        Def
	exceptions bool
}

func fuzzShapes() []fuzzShape {
	key := func(t *stream.Tuple) stream.Value { return t.Vals[1] }
	build := func(mode Mode, star, keyed bool) Def {
		d := Def{Mode: mode, Steps: []Step{{Alias: "A1"}, {Alias: "A2"}, {Alias: "A3"}},
			Window: &WindowAnchor{Span: 4 * time.Second, Step: 0, Following: true}}
		if star {
			d.Steps = []Step{{Alias: "A1", Star: true}, {Alias: "A2"}}
			d.Window = &WindowAnchor{Span: 4 * time.Second, Step: 1}
		}
		if keyed {
			for i := range d.Steps {
				d.Steps[i].Key = key
			}
		}
		return d
	}
	var out []fuzzShape
	for _, mode := range []Mode{ModeUnrestricted, ModeRecent, ModeChronicle, ModeConsecutive} {
		for _, star := range []bool{false, true} {
			for _, keyed := range []bool{false, true} {
				out = append(out, fuzzShape{def: build(mode, star, keyed)})
			}
		}
	}
	for _, mode := range []Mode{ModeConsecutive, ModeRecent} {
		for _, keyed := range []bool{false, true} {
			d := build(mode, false, keyed)
			d.Window.Span = time.Minute
			out = append(out, fuzzShape{def: d, exceptions: true})
		}
	}
	d := build(ModeUnrestricted, false, true)
	d.ExpireAfter = 3 * time.Second
	return append(out, fuzzShape{def: d})
}

func (s fuzzShape) matcher() *Matcher {
	if s.exceptions {
		return MustExceptionMatcher(s.def).m
	}
	return MustMatcher(s.def)
}

func fuzzTuple(name string, at time.Duration, tag string, seq uint64) *stream.Tuple {
	t := stream.MustTuple(qcSchema[name], stream.TS(at), stream.Str(name), stream.Str(tag), stream.Null)
	t.Seq = seq
	return t
}

// fuzzPool is the tuple table every FuzzMatcherLoad body refers into: the
// harness interns it first, so tuple ids 1..len(pool) name these tuples.
func fuzzPool() []*stream.Tuple {
	rows := []struct {
		name string
		at   time.Duration
		tag  string
	}{
		{"A1", 1 * time.Second, "a"}, {"A1", 1 * time.Second, "b"}, {"A2", 2 * time.Second, "a"},
		{"A1", 3 * time.Second, "b"}, {"A2", 4 * time.Second, "b"}, {"A3", 5 * time.Second, "a"},
		{"A2", 6 * time.Second, "a"}, {"A1", 7 * time.Second, "a"}, {"A3", 8 * time.Second, "b"},
		{"A1", 9 * time.Second, "c"}, {"A1", 9 * time.Second, "a"},
	}
	out := make([]*stream.Tuple, len(rows))
	for i, r := range rows {
		out[i] = fuzzTuple(r.name, r.at, r.tag, uint64(i+1))
	}
	return out
}

// drive pushes each tuple under its stream name and advances the clock to
// it, the way the engine feeds a time-sensitive query. Errors (out-of-order
// pushes against hostile restored state) are allowed; panics are not.
func drive(m *Matcher, tuples []*stream.Tuple) {
	for _, tu := range tuples {
		_, _ = m.Push(tu, tu.Schema.Name())
		m.Advance(tu.TS)
		m.TakeExceptions()
	}
}

// fuzzSeeds are Save outputs for every shape after the pool has been
// pushed, as bodies following the interned pool.
func fuzzSeeds() (shapes []uint8, bodies [][]byte) {
	pool := fuzzPool()
	for i, s := range fuzzShapes() {
		m := s.matcher()
		drive(m, pool)
		enc := snapshot.NewEncoder()
		for _, tu := range pool {
			enc.Tuple(tu)
		}
		n := len(enc.Buf)
		m.Save(enc)
		shapes = append(shapes, uint8(i))
		bodies = append(bodies, append([]byte(nil), enc.Buf[n:]...))
	}
	return shapes, bodies
}

// FuzzMatcherLoad: arbitrary matcher state never panics Load, nor a fixed
// push+advance script run on what loaded; every failure is a typed snapshot
// error; and a body that loads re-saves to exactly the bytes consumed.
func FuzzMatcherLoad(f *testing.F) {
	shapes, bodies := fuzzSeeds()
	for i := range shapes {
		f.Add(shapes[i], bodies[i])
	}
	all := fuzzShapes()
	pool := fuzzPool()
	script := []*stream.Tuple{
		fuzzTuple("A1", 10*time.Second, "a", 100), fuzzTuple("A2", 11*time.Second, "a", 101),
		fuzzTuple("A3", 12*time.Second, "b", 102), fuzzTuple("A1", 13*time.Second, "d", 103),
		fuzzTuple("A2", 14*time.Second, "b", 104), fuzzTuple("A3", 15*time.Second, "a", 105),
		fuzzTuple("A1", 3*time.Minute, "a", 106),
	}
	f.Fuzz(func(t *testing.T, shape uint8, body []byte) {
		s := all[int(shape)%len(all)]
		enc := snapshot.NewEncoder()
		for _, tu := range pool {
			enc.Tuple(tu)
		}
		enc.Buf = append(enc.Buf, body...)
		dec := reopen(t, enc)
		loaded := make([]*stream.Tuple, len(pool))
		for i := range loaded {
			var err error
			if loaded[i], err = dec.Tuple(); err != nil {
				t.Fatal(err)
			}
		}
		m := s.matcher()
		if err := m.Load(dec); err != nil {
			if !errors.Is(err, snapshot.ErrTruncated) && !errors.Is(err, snapshot.ErrCorrupt) &&
				!errors.Is(err, snapshot.ErrStateMismatch) {
				t.Fatalf("untyped load error: %v", err)
			}
			return
		}
		consumed := body[:len(body)-dec.Remaining()]
		re := snapshot.NewEncoder()
		for _, tu := range loaded {
			re.Tuple(tu)
		}
		n := len(re.Buf)
		m.Save(re)
		if !bytes.Equal(re.Buf[n:], consumed) {
			t.Fatalf("re-save differs:\n got %x\nwant %x", re.Buf[n:], consumed)
		}
		drive(m, script)
		m.StateSize()
		m.RunCount()
		if s.exceptions {
			(&ExceptionMatcher{m}).CompletionLevel(stream.Str("a"))
		}
	})
}

// TestGenerateSeedCorpus writes FuzzMatcherLoad's seed corpus into
// testdata/fuzz. Run with GEN_FUZZ_CORPUS=1 after changing a shape, the
// pool or the matcher frame.
func TestGenerateSeedCorpus(t *testing.T) {
	if os.Getenv("GEN_FUZZ_CORPUS") == "" {
		t.Skip("set GEN_FUZZ_CORPUS=1 to regenerate testdata/fuzz")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzMatcherLoad")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	shapes, bodies := fuzzSeeds()
	for i := range shapes {
		body := fmt.Sprintf("go test fuzz v1\nbyte(%q)\n[]byte(%q)\n", shapes[i], bodies[i])
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
