package snapshot

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/stream"
)

// appendN journals heartbeats i = lo..hi-1 (stamped at i ns) under LSNs
// i+1.
func appendN(t *testing.T, j *Journal, lo, hi int) {
	t.Helper()
	for i := lo; i < hi; i++ {
		lsn := j.LastLSN() + 1
		if lsn != uint64(i+1) {
			t.Fatalf("append %d would take LSN %d", i, lsn)
		}
		if err := j.AppendItemAt(lsn, stream.Heartbeat(stream.Timestamp(i))); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

// replayAll returns the replayed LSNs and the appendN index each record
// carries.
func replayAll(t *testing.T, dir string, after uint64) (lsns []uint64, recs []int) {
	t.Helper()
	err := Replay(dir, after, func(lsn uint64, body []byte) error {
		it, err := DecodeItem(body, nil)
		if err != nil {
			return err
		}
		lsns = append(lsns, lsn)
		recs = append(recs, int(it.TS))
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return lsns, recs
}

// TestJournalAppendReplay: records come back in LSN order with exact
// bodies, and an `after` cutoff skips everything at or below it.
func TestJournalAppendReplay(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, JournalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, j, 0, 50)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	lsns, recs := replayAll(t, dir, 0)
	if len(lsns) != 50 || lsns[0] != 1 || lsns[49] != 50 || recs[49] != 49 {
		t.Fatalf("replay = %d records, first %v, last %v %d", len(lsns), lsns[0], lsns[len(lsns)-1], recs[len(recs)-1])
	}
	// Cutoff semantics: records with lsn <= after are skipped — including a
	// journal whose entire prefix predates a snapshot cut.
	lsns, _ = replayAll(t, dir, 30)
	if len(lsns) != 20 || lsns[0] != 31 {
		t.Fatalf("replay after 30 = %d records starting at %v", len(lsns), lsns)
	}
	if lsns, _ = replayAll(t, dir, 50); len(lsns) != 0 {
		t.Fatalf("replay after 50 = %v, want empty", lsns)
	}
}

// TestJournalReopenContinuesLSN: a reopened journal appends after the last
// valid record, never reusing LSNs.
func TestJournalReopenContinuesLSN(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, JournalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, j, 0, 10)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(dir, JournalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if j2.LastLSN() != 10 {
		t.Fatalf("reopened LastLSN = %d, want 10", j2.LastLSN())
	}
	appendN(t, j2, 10, 20)
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	lsns, _ := replayAll(t, dir, 0)
	if len(lsns) != 20 || lsns[19] != 20 {
		t.Fatalf("replay after reopen = %v", lsns)
	}

	// Non-increasing explicit LSNs are rejected.
	j3, err := OpenJournal(dir, JournalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if err := j3.AppendItemAt(20, stream.Heartbeat(0)); err == nil {
		t.Fatal("AppendItemAt(20) after LSN 20 should fail")
	}
}

// TestJournalTornTail: a crash mid-append leaves a torn final record; replay
// ends cleanly before it and a reopened journal overwrites it.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, JournalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, j, 0, 10)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "journal-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v, %v", segs, err)
	}
	// Tear the last record: chop a few bytes off the file.
	info, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0], info.Size()-3); err != nil {
		t.Fatal(err)
	}

	lsns, _ := replayAll(t, dir, 0)
	if len(lsns) != 9 || lsns[8] != 9 {
		t.Fatalf("replay over torn tail = %v, want 1..9", lsns)
	}
	// Reopen: the torn tail is truncated away and LSN 10 is reassignable.
	j2, err := OpenJournal(dir, JournalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if j2.LastLSN() != 9 {
		t.Fatalf("LastLSN after torn tail = %d, want 9", j2.LastLSN())
	}
	appendN(t, j2, 9, 12)
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	lsns, _ = replayAll(t, dir, 0)
	if len(lsns) != 12 || lsns[11] != 12 {
		t.Fatalf("replay after tail rewrite = %v", lsns)
	}
}

// TestJournalRotation: a small segment threshold produces multiple segment
// files whose records replay seamlessly in order; corruption in a non-tail
// segment is a hard ErrCorrupt, not a silent skip.
func TestJournalRotation(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, JournalConfig{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, j, 0, 40)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "journal-*.seg"))
	if len(segs) < 3 {
		t.Fatalf("rotation produced %d segments, want >= 3", len(segs))
	}
	lsns, recs := replayAll(t, dir, 0)
	if len(lsns) != 40 || lsns[0] != 1 || lsns[39] != 40 || recs[0] != 0 {
		t.Fatalf("replay across segments = %d records", len(lsns))
	}

	// Flip a byte inside the first segment's record region.
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0xff
	if err := os.WriteFile(segs[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	err = Replay(dir, 0, func(uint64, []byte) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay with mid-log corruption: err = %v, want ErrCorrupt", err)
	}
}

// TestJournalReplayMissingDir: recovery from a directory that never existed
// is a clean no-op.
func TestJournalReplayMissingDir(t *testing.T) {
	if err := Replay(filepath.Join(t.TempDir(), "nope"), 0, func(uint64, []byte) error {
		t.Fatal("callback on missing dir")
		return nil
	}); err != nil {
		t.Fatalf("replay on missing dir: %v", err)
	}
}

// TestSnapshotFiles: WriteSnapshot is atomic (no temp residue) and
// LatestSnapshot picks the highest LSN.
func TestSnapshotFiles(t *testing.T) {
	dir := t.TempDir()
	if _, _, ok, err := LatestSnapshot(dir); err != nil || ok {
		t.Fatalf("empty dir: ok=%v err=%v", ok, err)
	}
	for _, lsn := range []uint64{5, 99, 42} {
		if _, err := WriteSnapshot(dir, lsn, []byte(fmt.Sprintf("blob-%d", lsn))); err != nil {
			t.Fatal(err)
		}
	}
	path, lsn, ok, err := LatestSnapshot(dir)
	if err != nil || !ok || lsn != 99 {
		t.Fatalf("latest = %q lsn=%d ok=%v err=%v", path, lsn, ok, err)
	}
	blob, err := os.ReadFile(path)
	if err != nil || string(blob) != "blob-99" {
		t.Fatalf("blob = %q, %v", blob, err)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Fatalf("temp residue: %v", tmps)
	}
}

// TestEncodeDecodeItem: journaled tuples and heartbeats round-trip without
// validation (malformed rows must survive to be re-screened on replay).
func TestEncodeDecodeItem(t *testing.T) {
	s := testSchema(t)
	resolve := resolverFor(s)

	hb := stream.Heartbeat(stream.TS(7 * time.Second))
	got, err := DecodeItem(EncodeItem(hb), resolve)
	if err != nil || !got.IsHeartbeat() || got.TS != hb.TS {
		t.Fatalf("heartbeat round trip = %+v, %v", got, err)
	}

	// A malformed (wrong-arity) tuple, as the chaos harness injects.
	bad := &stream.Tuple{Schema: s, TS: stream.TS(time.Second), Vals: []stream.Value{stream.Str("only")}}
	got, err = DecodeItem(EncodeItem(stream.Of(bad)), resolve)
	if err != nil {
		t.Fatalf("malformed tuple round trip: %v", err)
	}
	if got.Tuple == nil || len(got.Tuple.Vals) != 1 || got.Tuple.Schema != s || got.Tuple.TS != bad.TS {
		t.Fatalf("malformed tuple = %+v", got.Tuple)
	}

	// Unknown stream on decode is a state mismatch.
	none := func(string) (*stream.Schema, bool) { return nil, false }
	if _, err := DecodeItem(EncodeItem(stream.Of(bad)), none); !errors.Is(err, ErrStateMismatch) {
		t.Fatalf("unknown stream: err = %v, want ErrStateMismatch", err)
	}
}
