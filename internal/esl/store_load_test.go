package esl

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/snapshot"
)

// A windowed EXISTS buffer whose timestamps decrease is corrupt: loaded as
// is, it would break the binary search behind eviction and range probes.
func TestOpStateLoadRejectsReversedExistsBuffer(t *testing.T) {
	const shape = 8 // windowed NOT EXISTS
	e, q := opStateQuery(t, shape)
	pool := opStatePool(e)
	for _, tu := range pool {
		if err := e.PushTuple("s", tu); err != nil {
			t.Fatal(err)
		}
	}
	// Save behind the interned pool, as opStateSeeds does.
	enc := snapshot.NewEncoder()
	for _, tu := range pool {
		enc.Tuple(tu)
	}
	n := len(enc.Buf)
	if err := q.op.(opState).saveOpState(enc); err != nil {
		t.Fatal(err)
	}
	body := enc.Buf[n:]
	// The buffer is the body's tail: its length, then one byte per tuple
	// id (the pool is short). Reverse the ids.
	k := q.op.(*filterProjectOp).exists[0].buffer.Len()
	if k < 2 || body[len(body)-k-1] != byte(k) {
		t.Fatalf("buffer of %d tuples is not the body's tail", k)
	}
	slices.Reverse(body[len(body)-k:])
	if _, _, _, _, err := loadOpStateBody(t, shape, body); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("load: %v, want ErrCorrupt", err)
	}
}
