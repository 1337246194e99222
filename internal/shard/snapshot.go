package shard

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"

	"repro/internal/snapshot"
	"repro/internal/stream"
)

// Sharded snapshots stitch one section per shard behind a small manifest:
// the boundary state (router cursor, clock, ingest stage) written by the
// coordinator, then each replica's full serial snapshot — encoded
// concurrently, since the replicas are independent engines. Restore verifies
// the manifest (engine kind, shard count) before touching any replica, so a
// topology change surfaces as ErrShardMismatch, not a garbled decode.

// quiesceLocked pushes buffered input through the workers and waits for
// them, then releases combiner output, leaving all mutable state at rest.
// The reorder stage is NOT flushed — held-back tuples are serialized as
// boundary state, exactly as a crash would leave them durable.
func (e *Engine) quiesceLocked() error {
	if err := e.barrierLocked(); err != nil {
		return err
	}
	e.comb.FlushAll()
	return nil
}

func (e *Engine) saveStateLocked(enc *snapshot.Encoder) error {
	enc.Uvarint(snapshot.SnapSharded)
	enc.Int(e.n)
	enc.Uvarint(e.dur.LSN())
	enc.TS(e.lastTS)
	enc.Int(e.rr)
	enc.Bool(e.ingest != nil)
	if e.ingest != nil {
		snapshot.EncodeIngestState(enc, e.ingest.State())
	}
	// Shard sections: replicas are quiescent and independent, so their
	// snapshots encode in parallel and are stitched in shard order.
	blobs := make([][]byte, e.n)
	errs := make([]error, e.n)
	var wg sync.WaitGroup
	for i := range e.replicas {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var buf bytes.Buffer
			errs[i] = e.replicas[i].Checkpoint(&buf)
			blobs[i] = buf.Bytes()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	for _, blob := range blobs {
		enc.String(string(blob))
	}
	return nil
}

func (e *Engine) loadStateLocked(dec *snapshot.Decoder) error {
	kind, err := dec.Uvarint()
	if err != nil {
		return err
	}
	if kind != snapshot.SnapSharded {
		return fmt.Errorf("%w: snapshot was written by a serial engine (kind %d)", snapshot.ErrShardMismatch, kind)
	}
	n, err := dec.Int()
	if err != nil {
		return err
	}
	if n != e.n {
		return fmt.Errorf("%w: snapshot has %d shards, engine has %d", snapshot.ErrShardMismatch, n, e.n)
	}
	lsn, err := dec.Uvarint()
	if err != nil {
		return err
	}
	e.dur.SetLSN(lsn)
	if e.lastTS, err = dec.TS(); err != nil {
		return err
	}
	if e.rr, err = dec.Int(); err != nil {
		return err
	}
	hasIngest, err := dec.Bool()
	if err != nil {
		return err
	}
	if hasIngest != (e.ingest != nil) {
		return snapshot.Mismatchf("engine ingest boundary=%v, snapshot=%v", e.ingest != nil, hasIngest)
	}
	if hasIngest {
		st, err := snapshot.DecodeIngestState(dec)
		if err != nil {
			return err
		}
		e.ingest.SetState(st)
	}
	for i, r := range e.replicas {
		blob, err := dec.String()
		if err != nil {
			return err
		}
		if err := r.Restore(strings.NewReader(blob)); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	e.pending = e.pending[:0]
	return nil
}

// Checkpoint quiesces the engine — buffered input flushed through the
// workers, combiner drained — and writes one self-describing snapshot:
// boundary state plus every shard's serial snapshot. Restore it into a
// freshly built engine with the same shard count, DDL, and queries.
func (e *Engine) Checkpoint(w io.Writer) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return errClosed
	}
	return e.dur.Checkpoint(w)
}

// Restore replaces all mutable state with a snapshot written by Checkpoint.
// A serial snapshot or a different shard count returns ErrShardMismatch;
// shape disagreements inside any shard section return ErrStateMismatch.
func (e *Engine) Restore(r io.Reader) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return errClosed
	}
	return e.dur.Restore(r)
}

// --- journal + recovery ---

// CheckpointNow forces a durable snapshot into the journal directory,
// independent of the CheckpointEvery cadence.
func (e *Engine) CheckpointNow() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return errClosed
	}
	return e.dur.CheckpointNow()
}

// LastLSN reports the sequence number of the last journaled (or replayed)
// event record.
func (e *Engine) LastLSN() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.dur.LSN()
}

// SyncJournal forces buffered journal records to stable storage.
func (e *Engine) SyncJournal() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.dur.Sync()
}

// Recover rebuilds state from dir (default: the configured journal
// directory): the newest valid snapshot is restored into every shard, then
// the journal suffix past its LSN replays through the boundary — routing,
// lateness, and dedup decisions re-manifest deterministically, and rows the
// original run emitted after the cut are re-emitted. Records at or before
// the snapshot's LSN are skipped, never double-applied.
func (e *Engine) Recover(dir string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return errClosed
	}
	return e.dur.Recover(dir)
}

// applyReplayLocked re-offers journaled items through the boundary.
// Flush boundaries may differ from the original run, which only moves
// heartbeat coalescing points, not output content.
func (e *Engine) applyReplayLocked(items []stream.Item) error {
	err := e.offerLocked(items)
	if len(e.pending) >= e.batchSize {
		_ = e.flushLocked() // dispatch only; it cannot fail
	}
	return err
}

// Kill abandons the engine without draining: buffered input, reorder-stage
// tuples, combiner output, and all worker state are discarded, simulating a
// crash at this instant. The chaos harness pairs Kill with Recover on a
// freshly built engine to certify crash-consistency.
func (e *Engine) Kill() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	e.closed = true
	for _, w := range e.workers {
		close(w.in)
	}
	for _, w := range e.workers {
		<-w.done
	}
	// Release the journal file handle so repeated kill/recover cycles do not
	// leak descriptors. Close flushes the group-commit buffer, but every
	// acknowledged push call already flushed its records, so this only
	// formalizes what a crash between calls would leave behind.
	_ = e.dur.Close()
}
