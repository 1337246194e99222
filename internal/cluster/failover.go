package cluster

// Fail-over: origin adoption after a connection death.
//
// The ring and the query homes never change — an origin is a *logical*
// node slot, and fail-over only moves where it is hosted. When connection
// F dies, every origin it hosted is adopted by a surviving connection T:
//
//   1. Adopt        — T builds a fresh engine addressed by the origin id.
//   2. Registration — the feed replays the origin's sealed registration
//                     specs (same targeting rule as Seal), so the adopted
//                     engine carries exactly the dead engine's DDL,
//                     queries, and subscriptions.
//   3. Restore      — the last shipped checkpoint (snapshot blob + node
//                     counters at the cut) restores the engine to batch
//                     LSN K. No checkpoint yet = replay from genesis.
//   4. Replay       — the feed resends its retained batches (LSN > K).
//                     The engine deterministically re-emits every output
//                     row past the cut; the rows the feed had already
//                     delivered (rowsRecv − counters.Rows at the cut) are
//                     suppressed at the reader before they reach the merge
//                     tier — exactly-once re-emission.
//   5. Re-arm       — a fresh checkpoint is requested immediately, so a
//                     prompt second failure replays a short window.
//
// Everything here runs on the feed goroutine under Client.mu, triggered
// lazily from the send and drain paths. An adoption failure (the target
// dies too, or rejects the restore — e.g. heterogeneous shard counts)
// condemns the target and retries on the next survivor; the loop is
// bounded by the connection count.

import "fmt"

// condemnLocked marks a connection dead and waits for its reader goroutine
// to exit, so the dead conn's per-origin state (shape caches, sequence
// counters) is quiescent before any origin is handed to a new host.
func (c *Client) condemnLocked(nc *nodeConn, cause error) {
	if cause == nil {
		cause = ErrNodeDown
	}
	nc.markDown(cause)
	if c.sealed {
		<-nc.readerDone
	}
}

// pickTargetLocked chooses the adopting connection: the next live
// connection cyclically after the dead one, spreading adopted origins
// across survivors when several nodes die over time.
func (c *Client) pickTargetLocked(dead *nodeConn) *nodeConn {
	n := len(c.conns)
	for k := 1; k <= n; k++ {
		nc := c.conns[(dead.id+k)%n]
		if !nc.isDown() {
			return nc
		}
	}
	return nil
}

// failoverLocked condemns a dead connection and re-homes every origin left
// without a live host (the dead conn's own origin plus any it had
// adopted). Returns nil when every origin has a live host again; returns a
// cluster-fatal (non node-scoped) error when no connection survives.
func (c *Client) failoverLocked(dead *nodeConn, cause error) error {
	c.condemnLocked(dead, cause)
	for {
		var victim *originState
		for _, o := range c.origins {
			if o.host.isDown() {
				victim = o
				break
			}
		}
		if victim == nil {
			return nil
		}
		target := c.pickTargetLocked(victim.host)
		if target == nil {
			// Wraps the ErrNodeDown sentinel but deliberately not a
			// *NodeError: with no survivors the feed as a whole is dead,
			// and callers treat this as cluster-fatal.
			return fmt.Errorf("cluster: origin %d has no surviving host (%w): %v", victim.id, ErrNodeDown, victim.host.nodeErr())
		}
		if err := c.adoptLocked(victim, target); err != nil {
			c.condemnLocked(target, err)
		}
	}
}

// adoptLocked moves one origin onto a live target connection. Any error
// means the target is unusable (it died mid-adoption, or rejected a step);
// the caller condemns it and retries elsewhere. The origin's own state is
// never corrupted by a failed adoption: the host pointer only advances
// once the control steps succeeded, and replayed batches are neither
// re-counted nor re-retained, so a second adoption replays the same
// window.
func (c *Client) adoptLocked(o *originState, target *nodeConn) error {
	from := o.host.id
	o.mu.Lock()
	// Rows delivered beyond the checkpoint cut will be re-emitted by the
	// replay below; arm the reader to drop exactly that many. Set, not
	// added: rowsRecv − counters.Rows is the full outstanding duplicate
	// count however many adoptions came before.
	if o.rowsRecv > o.ckptCounters.Rows {
		o.suppress = o.rowsRecv - o.ckptCounters.Rows
	} else {
		o.suppress = 0
	}
	lsn := o.ckptLSN
	counters := o.ckptCounters
	blob := o.ckptBlob
	retained := o.retained
	o.mu.Unlock()

	if err := target.sendFor(o.id, frameAdopt, nil); err != nil {
		return err
	}
	if err := c.ctrlReply(target); err != nil {
		return err
	}
	for _, spec := range c.specs {
		if !c.specTargetsOrigin(spec, o.id) {
			continue
		}
		if err := target.sendSpec(o.id, spec); err != nil {
			return err
		}
		if err := c.ctrlReply(target); err != nil {
			return err
		}
	}
	if blob != nil {
		err := target.sendFor(o.id, frameRestore, func(e *wireEnc) {
			encodeSnap(e, lsn, counters, blob)
		})
		if err != nil {
			return err
		}
		if err := c.ctrlReply(target); err != nil {
			return err
		}
	}

	o.host = target
	for _, rb := range retained {
		if err := target.sendBatchFor(o, rb.items); err != nil {
			return err
		}
	}
	o.mu.Lock()
	o.sinceCkpt = 0
	o.ckptPending = true
	curLSN := o.lsn
	o.mu.Unlock()
	if err := target.sendFor(o.id, frameCkptReq, func(e *wireEnc) {
		encodeCkptReq(e, curLSN)
	}); err != nil {
		return err
	}

	c.failovers++
	if c.onFailover != nil {
		c.onFailover(FailoverEvent{
			Origin:          o.id,
			From:            from,
			To:              target.id,
			Addr:            c.conns[from].addr,
			Restored:        blob != nil,
			CheckpointLSN:   lsn,
			ReplayedBatches: len(retained),
		})
	}
	return nil
}

// ctrlReply waits for one control acknowledgment routed by the target's
// reader goroutine. The reader never blocks on the feed (the fan-in's
// Offer is non-blocking and drain channels are buffered), so this wait
// cannot deadlock; a dying reader closes readerDone instead of replying.
func (c *Client) ctrlReply(nc *nodeConn) error {
	select {
	case err := <-nc.ctrl:
		return err
	case <-nc.readerDone:
		return nc.nodeErr()
	}
}
