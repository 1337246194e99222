package shard

// Regression test for worker output-buffer recycling: a one-time output
// burst must not pin a peak-sized Event slice on the worker forever.

import (
	"testing"

	"repro/internal/stream"
)

func outCaps(e *Engine) []int {
	caps := make([]int, len(e.workers))
	for i, w := range e.workers {
		caps[i] = cap(w.out)
	}
	return caps
}

func TestWorkerOutBufferRecycled(t *testing.T) {
	e := New(1)
	defer e.Close()
	if _, err := e.Exec(`CREATE STREAM s(a, tagtime);`); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RegisterQuery("q", `SELECT a FROM s`, func(Row) {}); err != nil {
		t.Fatal(err)
	}

	// One flush carrying far more than outBufCap row events: every input
	// tuple emits one row, and a batch size above the burst length keeps it
	// a single worker dispatch.
	const burst = 4 * outBufCap
	e.SetBatchSize(burst + 1)
	for i := 0; i < burst; i++ {
		if err := e.Push("s", sec(i+1), stream.Str("x"), stream.Null); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if c := outCaps(e)[0]; c > outBufCap {
		t.Fatalf("after burst flush: worker.out capacity = %d, want <= %d", c, outBufCap)
	}

	// Steady state: small flushes must keep the retained capacity at the
	// cap, not creep back toward burst size.
	e.SetBatchSize(16)
	at := burst
	for round := 0; round < 50; round++ {
		for i := 0; i < 16; i++ {
			at++
			if err := e.Push("s", sec(at), stream.Str("y"), stream.Null); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if c := outCaps(e)[0]; c > outBufCap {
		t.Fatalf("steady state: worker.out capacity = %d, want <= %d", c, outBufCap)
	}
}
