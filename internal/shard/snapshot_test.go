package shard

// Checkpoint/restore and crash-recovery tests for the sharded engine: a
// snapshot stitched from per-shard sections restores into a fresh engine
// with the same topology, Kill+Recover re-emits exactly the post-cut rows,
// and topology or engine-kind drift fails with ErrShardMismatch before any
// replica state is touched.

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/esl"
	"repro/internal/snapshot"
	"repro/internal/stream"
)

// shardSink is a concurrency-safe row collector: sharded callbacks arrive
// on combiner/worker goroutines.
type shardSink struct {
	mu   sync.Mutex
	rows []string
}

func (s *shardSink) rec(name string) func(esl.Row) {
	return func(r esl.Row) {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.rows = append(s.rows, fmt.Sprintf("%s|%v%v", name, r.Names, r.Vals))
	}
}

func (s *shardSink) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.rows)
}

func (s *shardSink) snapshot() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.rows...)
}

func sortedRows(rows []string) []string {
	out := append([]string(nil), rows...)
	sort.Strings(out)
	return out
}

func compareMultisets(t *testing.T, label string, want, have []string) {
	t.Helper()
	w, h := sortedRows(want), sortedRows(have)
	if len(w) != len(h) {
		t.Fatalf("%s: %d rows, want %d", label, len(h), len(w))
	}
	for i := range w {
		if w[i] != h[i] {
			t.Fatalf("%s: row %d = %s, want %s", label, i, h[i], w[i])
		}
	}
}

// registerShardSnapWorkload installs a keyed workload that spreads across
// shards: a tag filter, a keyed grouped aggregate, and a keyed SEQ.
func registerShardSnapWorkload(t *testing.T, e *Engine, s *shardSink) {
	t.Helper()
	if _, err := e.Exec(`
		CREATE STREAM A(tagid, n);
		CREATE STREAM B(tagid, n);`); err != nil {
		t.Fatal(err)
	}
	queries := []struct{ name, sql string }{
		{"filter", `SELECT tagid, n FROM A WHERE n % 3 = 0`},
		{"agg", `SELECT tagid, COUNT(*), SUM(n) FROM B GROUP BY tagid`},
		{"seq", `SELECT A.tagid, A.n, B.n FROM A, B
			WHERE SEQ(A, B) AND A.tagid = B.tagid`},
	}
	for _, q := range queries {
		if _, err := e.RegisterQuery(q.name, q.sql, s.rec(q.name)); err != nil {
			t.Fatalf("register %s: %v", q.name, err)
		}
	}
}

// shardSnapItems builds deterministic readings [lo, hi): even ordinals on
// A, odd on B, 16 tags, 10ms apart.
func shardSnapItems(t *testing.T, e *Engine, lo, hi int) []stream.Item {
	t.Helper()
	schemaA, _ := e.StreamSchema("A")
	schemaB, _ := e.StreamSchema("B")
	items := make([]stream.Item, 0, hi-lo)
	for i := lo; i < hi; i++ {
		schema := schemaA
		if i%2 == 1 {
			schema = schemaB
		}
		tu, err := stream.NewTuple(schema, stream.TS(time.Duration(i+1)*10*time.Millisecond),
			stream.Str(fmt.Sprintf("tag%02d", i%16)), stream.Int(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, stream.Of(tu))
	}
	return items
}

func feedShardItems(t *testing.T, e *Engine, items []stream.Item, batch int) {
	t.Helper()
	for off := 0; off < len(items); off += batch {
		hi := off + batch
		if hi > len(items) {
			hi = len(items)
		}
		if err := e.PushBatch(items[off:hi]); err != nil {
			t.Fatalf("push batch: %v", err)
		}
	}
}

var shardIngestOpts = []esl.Option{
	esl.WithSlack(50 * time.Millisecond),
	esl.WithExactDedup(),
	esl.WithLateness(stream.LateDeadLetter),
}

// TestShardCheckpointRestore: checkpoint a 4-shard engine mid-stream,
// restore into a fresh 4-shard engine, feed the same suffix to both, and
// require identical row multisets and boundary accounting.
func TestShardCheckpointRestore(t *testing.T) {
	e1, s1 := New(4, shardIngestOpts...), &shardSink{}
	defer e1.Close()
	registerShardSnapWorkload(t, e1, s1)
	feedShardItems(t, e1, shardSnapItems(t, e1, 0, 400), 32)

	var buf bytes.Buffer
	if err := e1.Checkpoint(&buf); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	blob := buf.Bytes()
	var buf2 bytes.Buffer
	if err := e1.Checkpoint(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, buf2.Bytes()) {
		t.Fatal("two checkpoints of unchanged sharded state differ")
	}

	e2, s2 := New(4, shardIngestOpts...), &shardSink{}
	defer e2.Close()
	registerShardSnapWorkload(t, e2, s2)
	if err := e2.Restore(bytes.NewReader(blob)); err != nil {
		t.Fatalf("restore: %v", err)
	}

	mark1 := s1.len()
	// Each engine gets its own tuples: engines stamp sequence numbers into
	// the tuples they deliver, and e1's workers may still be running.
	feedShardItems(t, e1, shardSnapItems(t, e1, 400, 800), 32)
	feedShardItems(t, e2, shardSnapItems(t, e2, 400, 800), 32)
	for _, e := range []*Engine{e1, e2} {
		if err := e.Heartbeat(stream.TS(900 * 10 * time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		if err := e.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	compareMultisets(t, "restored shard suffix", s1.snapshot()[mark1:], s2.snapshot())

	st1, st2 := e1.EngineStats(), e2.EngineStats()
	if st1 != st2 {
		t.Fatalf("stats diverge after restore:\n%+v\n%+v", st1, st2)
	}
	if st2.Ingested != st2.Emitted+st2.DroppedLate+st2.DroppedDup+st2.DeadLettered {
		t.Fatalf("accounting broken after restore: %+v", st2)
	}
}

// TestShardKillRecover: journal a 4-shard run, cut a snapshot, keep
// feeding, Kill (crash semantics: buffered and in-flight work discarded),
// then Recover a fresh engine and continue. Committed rows plus the
// recovered run must equal an uninterrupted reference run.
func TestShardKillRecover(t *testing.T) {
	dir := t.TempDir()
	jopts := append(append([]esl.Option{}, shardIngestOpts...),
		esl.WithJournal(dir))

	e1, s1 := New(4, jopts...), &shardSink{}
	registerShardSnapWorkload(t, e1, s1)
	feedShardItems(t, e1, shardSnapItems(t, e1, 0, 400), 32)
	if err := e1.CheckpointNow(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	// CheckpointNow quiesces, so the sink is complete at the cut.
	mark := s1.len()
	committed := s1.snapshot()[:mark]
	feedShardItems(t, e1, shardSnapItems(t, e1, 400, 500), 32)
	e1.Kill()

	e2, s2 := New(4, jopts...), &shardSink{}
	defer e2.Close()
	registerShardSnapWorkload(t, e2, s2)
	if err := e2.Recover(""); err != nil {
		t.Fatalf("recover: %v", err)
	}
	tail := shardSnapItems(t, e2, 500, 800)
	feedShardItems(t, e2, tail, 32)

	ref, sr := New(4, shardIngestOpts...), &shardSink{}
	defer ref.Close()
	registerShardSnapWorkload(t, ref, sr)
	feedShardItems(t, ref, shardSnapItems(t, ref, 0, 800), 32)

	for _, e := range []*Engine{e2, ref} {
		if err := e.Heartbeat(stream.TS(900 * 10 * time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		if err := e.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	stitched := append(append([]string{}, committed...), s2.snapshot()...)
	compareMultisets(t, "kill/recover vs uninterrupted", sr.snapshot(), stitched)

	st := e2.EngineStats()
	if st.Ingested != st.Emitted+st.DroppedLate+st.DroppedDup+st.DeadLettered {
		t.Fatalf("accounting broken after recovery: %+v", st)
	}
	refSt := ref.EngineStats()
	if st.Ingested != refSt.Ingested || st.Emitted != refSt.Emitted ||
		st.DroppedLate != refSt.DroppedLate || st.DroppedDup != refSt.DroppedDup ||
		st.DeadLettered != refSt.DeadLettered {
		t.Fatalf("recovered boundary counters %+v != reference %+v", st, refSt)
	}
}

// TestShardTopologyMismatch: a 4-shard snapshot must not restore into a
// 2-shard engine, and serial/sharded snapshots must not cross.
func TestShardTopologyMismatch(t *testing.T) {
	e4, s4 := New(4), &shardSink{}
	defer e4.Close()
	registerShardSnapWorkload(t, e4, s4)
	feedShardItems(t, e4, shardSnapItems(t, e4, 0, 100), 32)
	var buf bytes.Buffer
	if err := e4.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	sharded := buf.Bytes()

	e2, s2 := New(2), &shardSink{}
	defer e2.Close()
	registerShardSnapWorkload(t, e2, s2)
	if err := e2.Restore(bytes.NewReader(sharded)); !errors.Is(err, snapshot.ErrShardMismatch) {
		t.Fatalf("shard-count mismatch: err = %v, want ErrShardMismatch", err)
	}

	// A serial snapshot offered to a sharded engine.
	serial := esl.New()
	if _, err := serial.Exec(`CREATE STREAM A(tagid, n); CREATE STREAM B(tagid, n);`); err != nil {
		t.Fatal(err)
	}
	var sbuf bytes.Buffer
	if err := serial.Checkpoint(&sbuf); err != nil {
		t.Fatal(err)
	}
	if err := e2.Restore(bytes.NewReader(sbuf.Bytes())); !errors.Is(err, snapshot.ErrShardMismatch) {
		t.Fatalf("serial snapshot into sharded engine: err = %v, want ErrShardMismatch", err)
	}

	// And the sharded snapshot offered to a serial engine.
	serial2 := esl.New()
	if _, err := serial2.Exec(`CREATE STREAM A(tagid, n); CREATE STREAM B(tagid, n);`); err != nil {
		t.Fatal(err)
	}
	if err := serial2.Restore(bytes.NewReader(sharded)); !errors.Is(err, snapshot.ErrShardMismatch) {
		t.Fatalf("sharded snapshot into serial engine: err = %v, want ErrShardMismatch", err)
	}
}
