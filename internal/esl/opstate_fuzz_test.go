package esl

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

// opStateShapes are the continuous-query shapes FuzzOpStateLoad loads
// into: cumulative, RANGE and ROWS aggregates with and without GROUP BY and
// DISTINCT, an aggregate and a filter-project behind DISTINCT and LIMIT, a
// deferred FOLLOWING window and a windowed EXISTS.
var opStateShapes = []string{
	`SELECT count(*) AS n, sum(v) AS t FROM s`,
	`SELECT k, count(DISTINCT v) AS n, max(v) AS m FROM s GROUP BY k`,
	`SELECT count(*) AS n, max(v) AS m FROM s OVER (RANGE 3 SECONDS PRECEDING CURRENT)`,
	`SELECT k, count(DISTINCT v) AS n, sum(v) AS t FROM s OVER (RANGE 3 SECONDS PRECEDING CURRENT) GROUP BY k`,
	`SELECT count(*) AS n, min(v) AS m FROM s OVER (ROWS 3 PRECEDING)`,
	`SELECT k, count(DISTINCT v) AS n, avg(v) AS a FROM s OVER (ROWS 3 PRECEDING) GROUP BY k`,
	`SELECT DISTINCT k, count(*) AS n FROM s GROUP BY k LIMIT 3`,
	`SELECT DISTINCT k, v FROM s LIMIT 5`,
	`SELECT o.k FROM s AS o WHERE NOT EXISTS
	   (SELECT * FROM s AS p OVER [2 SECONDS PRECEDING AND FOLLOWING o] WHERE p.v > o.v)`,
	`SELECT o.k FROM s AS o WHERE NOT EXISTS
	   (SELECT * FROM TABLE(s OVER (RANGE 2 SECONDS PRECEDING CURRENT)) AS p WHERE p.k = o.k)`,
}

// opStateQuery registers shape i on a fresh engine over s(k, v, tagtime).
func opStateQuery(t testing.TB, i int) (*Engine, *Query) {
	t.Helper()
	e := New()
	if _, err := e.Exec(`CREATE STREAM s(k, v, tagtime);`); err != nil {
		t.Fatal(err)
	}
	q, err := e.RegisterQuery("q", opStateShapes[i], func(Row) {})
	if err != nil {
		t.Fatalf("shape %d: %v", i, err)
	}
	return e, q
}

// opStateTuples builds tuples of s: one per (second, key, value) triple.
func opStateTuples(e *Engine, rows [][3]int64) []*stream.Tuple {
	schema, _ := e.StreamSchema("s")
	out := make([]*stream.Tuple, len(rows))
	for i, r := range rows {
		out[i] = stream.MustTuple(schema, stream.TS(time.Duration(r[0])*time.Second),
			stream.Str(fmt.Sprintf("k%d", r[1])), stream.Int(r[2]), stream.Null)
	}
	return out
}

// opStatePool is the tuple table every FuzzOpStateLoad body refers into:
// the harness interns it first, so tuple ids 1..len(pool) name these
// tuples. Two values differ only above 2^53, where Value.Hash collides.
func opStatePool(e *Engine) []*stream.Tuple {
	return opStateTuples(e, [][3]int64{
		{1, 0, 5}, {1, 1, 5}, {2, 0, 7}, {3, 1, 2}, {4, 0, 5}, {5, 2, 9},
		{6, 0, big}, {6, 1, big + 1}, {7, 0, big + 1}, {8, 1, 3},
	})
}

// opStateSeeds are saveOpState outputs for every shape after the pool has
// been pushed, as bodies following the interned pool.
func opStateSeeds(t testing.TB) (shapes []uint8, bodies [][]byte) {
	for i := range opStateShapes {
		e, q := opStateQuery(t, i)
		pool := opStatePool(e)
		for _, tu := range pool {
			if err := e.PushTuple("s", tu); err != nil {
				t.Fatal(err)
			}
		}
		enc := snapshot.NewEncoder()
		for _, tu := range pool {
			enc.Tuple(tu)
		}
		n := len(enc.Buf)
		if err := q.op.(opState).saveOpState(enc); err != nil {
			t.Fatal(err)
		}
		shapes = append(shapes, uint8(i))
		bodies = append(bodies, append([]byte(nil), enc.Buf[n:]...))
	}
	return shapes, bodies
}

// loadOpStateBody loads body, behind the interned pool, into a fresh
// instance of shape; it returns the engine, the query, the pool as
// decoded and the bytes the load consumed.
func loadOpStateBody(t *testing.T, shape int, body []byte) (*Engine, *Query, []*stream.Tuple, []byte, error) {
	e, q := opStateQuery(t, shape)
	pool := opStatePool(e)
	enc := snapshot.NewEncoder()
	for _, tu := range pool {
		enc.Tuple(tu)
	}
	enc.Buf = append(enc.Buf, body...)
	raw, err := enc.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := snapshot.NewDecoderBytes(raw, e.resolverLocked())
	if err != nil {
		t.Fatal(err)
	}
	for i := range pool {
		if pool[i], err = dec.Tuple(); err != nil {
			t.Fatal(err)
		}
	}
	err = q.op.(opState).loadOpState(dec)
	return e, q, pool, body[:len(body)-dec.Remaining()], err
}

// FuzzOpStateLoad: arbitrary query operator state never panics
// loadOpState, nor a fixed push and heartbeat script run on what loaded;
// every failure is a typed snapshot error; and a body that loads re-saves
// to exactly the bytes it consumed.
func FuzzOpStateLoad(f *testing.F) {
	shapes, bodies := opStateSeeds(f)
	for i := range shapes {
		f.Add(shapes[i], bodies[i])
	}
	f.Fuzz(func(t *testing.T, shape uint8, body []byte) {
		e, q, pool, consumed, err := loadOpStateBody(t, int(shape)%len(opStateShapes), body)
		if err != nil {
			if !errors.Is(err, snapshot.ErrTruncated) && !errors.Is(err, snapshot.ErrCorrupt) &&
				!errors.Is(err, snapshot.ErrStateMismatch) {
				t.Fatalf("untyped load error: %v", err)
			}
			return
		}
		re := snapshot.NewEncoder()
		for _, tu := range pool {
			re.Tuple(tu)
		}
		n := len(re.Buf)
		if err := q.op.(opState).saveOpState(re); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re.Buf[n:], consumed) {
			t.Fatalf("re-save differs:\n got %x\nwant %x", re.Buf[n:], consumed)
		}
		// The engine isolates operator panics by quarantining the query, so
		// a quarantine here is a panic.
		for _, tu := range opStateTuples(e, [][3]int64{{10, 0, 5}, {11, 1, big}, {11, 2, 7}, {12, 0, 5}}) {
			_ = e.PushTuple("s", tu)
		}
		_ = e.Heartbeat(stream.TS(30 * time.Second))
		for _, tu := range opStateTuples(e, [][3]int64{{31, 0, big + 1}, {32, 1, 3}}) {
			_ = e.PushTuple("s", tu)
		}
		_ = e.Heartbeat(stream.TS(time.Minute))
		if bad, err := q.Quarantined(); bad {
			t.Fatalf("script panicked on loaded state: %v", err)
		}
		q.op.(stateSizer).stateSize()
	})
}

// Every seed must load: a seed the loader rejects seeds nothing.
func TestOpStateSeedsLoad(t *testing.T) {
	shapes, bodies := opStateSeeds(t)
	for i := range shapes {
		if _, _, _, consumed, err := loadOpStateBody(t, int(shapes[i]), bodies[i]); err != nil || len(consumed) != len(bodies[i]) {
			t.Errorf("shape %d: seed does not load whole: %v", i, err)
		}
	}
}

// TestGenerateOpStateCorpus writes FuzzOpStateLoad's seed corpus into
// testdata/fuzz. Run with GEN_FUZZ_CORPUS=1 after changing a shape, the
// pool or an operator's state layout.
func TestGenerateOpStateCorpus(t *testing.T) {
	if os.Getenv("GEN_FUZZ_CORPUS") == "" {
		t.Skip("set GEN_FUZZ_CORPUS=1 to regenerate testdata/fuzz/FuzzOpStateLoad")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzOpStateLoad")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	shapes, bodies := opStateSeeds(t)
	for i := range shapes {
		body := fmt.Sprintf("go test fuzz v1\nbyte(%q)\n[]byte(%q)\n", shapes[i], bodies[i])
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%02d", i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
