package cluster

// The feed client: the ingest tier of the cluster. It owns a *planning
// replica* — a serial engine that sees every DDL statement and query
// registration but never a tuple — whose planner metadata (shardability,
// route guards, schemas) drives placement. Registration is collected
// locally and shipped at Seal (the first push seals implicitly): homing
// decisions are made once, against the full query set, so a query never
// has to migrate between nodes mid-stream.
//
// The feed side is the sharded engine's own shard.Front: ingest boundary,
// order check, per-origin runs with the same heartbeat regimes, and the
// bounded timestamp-ordered fan-in of per-origin rows. This file is the
// wire transport behind it.
//
// Fail-over separates *origins* (logical node slots the ring addresses;
// they never move) from *connections* (the TCP sessions hosting them).
// When Config.CheckpointEvery is set the feed periodically asks each
// origin's host to cut and ship an engine checkpoint at a batch-sequence
// LSN, and retains every batch past the last cut. When a connection dies,
// each origin it hosted is adopted by a surviving connection: the feed
// replays the origin's registrations, restores the shipped snapshot,
// replays the retained batch suffix, and suppresses the re-emitted rows it
// already delivered — exactly-once output across the kill (failover.go).

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/esl"
	"repro/internal/shard"
	"repro/internal/stream"
)

// Config configures a feed client.
type Config struct {
	// Nodes lists the engine node addresses; the index is the origin id,
	// and origin 0 is the pinned-work home.
	Nodes []string
	// BatchSize is the pending-run length that triggers a flush (0 =
	// shard.DefaultBatchSize).
	BatchSize int
	// VNodes is the consistent-hash ring density (0 = DefaultVNodes).
	VNodes int
	// Coalesce is the per-connection sender budget (0 = DefaultCoalesce).
	Coalesce int
	// CheckpointEvery enables fail-over: every CheckpointEvery batches per
	// origin the feed asks the hosting node to cut and ship a checkpoint,
	// and retains sent batches past the last cut so a dead node's engine
	// can be restored and replayed on a surviving peer. 0 disables
	// fail-over: a dead node surfaces as a node-scoped *NodeError and its
	// slice of the stream is lost.
	CheckpointEvery int
	// IOTimeout bounds every socket operation: writes get per-Write
	// deadlines, reads get 3×IOTimeout deadlines backed by keepalive pings
	// every IOTimeout, and a silent peer surfaces as ErrNodeTimeout. 0
	// disables deadlines (a stalled peer blocks until killed).
	IOTimeout time.Duration
	// DialAttempts is how many times Dial tries each node before giving up
	// (0 or 1 = single attempt).
	DialAttempts int
	// DialBackoff is the initial retry backoff, doubling per attempt (0 =
	// DefaultDialBackoff).
	DialBackoff time.Duration
	// OnFailover, when set, observes completed origin adoptions. Called on
	// the feed goroutine with internal locks held: it must not call back
	// into the Client.
	OnFailover func(FailoverEvent)
	// Options are the serial engine's fault-tolerance options
	// (esl.WithSlack, esl.WithLateness, ...). They configure the ingest
	// boundary in front of the router, exactly as in the sharded engine.
	// Engine durability options are not supported here: cluster fail-over
	// ships checkpoints in-band (CheckpointEvery) instead of journaling to
	// local disk.
	Options []esl.Option
}

// DefaultDialBackoff is the initial redial backoff.
const DefaultDialBackoff = 50 * time.Millisecond

// Typed availability errors. A connection failure always wraps ErrNodeDown;
// failures detected by a missed deadline additionally match ErrNodeTimeout
// (which itself wraps ErrNodeDown). Both surface inside *NodeError, which
// names the node.
var (
	ErrNodeDown    = errors.New("cluster: node down")
	ErrNodeTimeout = fmt.Errorf("%w (i/o timeout)", ErrNodeDown)
)

var errClientClosed = errors.New("cluster: client closed")

// NodeError is a node-scoped failure: only the named node is affected, and
// with fail-over disabled the rest of the cluster keeps running.
type NodeError struct {
	Node int
	Addr string
	Err  error
}

func (e *NodeError) Error() string {
	return fmt.Sprintf("cluster: node %d (%s): %v", e.Node, e.Addr, e.Err)
}

func (e *NodeError) Unwrap() error { return e.Err }

// FailoverEvent describes one completed origin adoption.
type FailoverEvent struct {
	Origin          int    // logical node slot that moved
	From            int    // connection that hosted it and died
	To              int    // surviving connection that adopted it
	Addr            string // address of the dead connection
	Restored        bool   // a shipped checkpoint was restored (false = replay from genesis)
	CheckpointLSN   uint64 // batch LSN of the restored checkpoint
	ReplayedBatches int    // retained batches replayed past the cut
}

// classifyNodeErr wraps a raw connection error in the availability
// taxonomy: deadline misses become ErrNodeTimeout, everything else
// ErrNodeDown; already-classified errors pass through.
func classifyNodeErr(err error) error {
	if err == nil {
		return ErrNodeDown
	}
	if errors.Is(err, ErrNodeDown) {
		return err
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return fmt.Errorf("%w: %v", ErrNodeTimeout, err)
	}
	return fmt.Errorf("%w: %v", ErrNodeDown, err)
}

// regSpec is one deferred registration, replayed onto nodes at Seal in the
// original order (later statements may read streams earlier ones create).
// The same specs replay again onto an adopting connection at fail-over.
type specKind uint8

const (
	specDDL specKind = iota
	specQuery
	specSub
)

type regSpec struct {
	kind   specKind
	script string // DDL text
	name   string // query name
	sql    string // query text
	stream string // subscription stream
	slot   int
	rows   bool       // the query has a row callback
	q      *esl.Query // planning handle, for placement lookup
}

// Client is a connected feed. Registration and ingestion methods are safe
// from one goroutine (the feed); output callbacks run on connection reader
// goroutines, serialized by the merge tier, and must not call back into the
// Client.
type Client struct {
	shard.Door // StreamSchema, Push, PushTuple, Heartbeat, Feed, PushBatch, OnDeadLetter

	mu         sync.Mutex
	plan       *esl.Engine
	front      *shard.Front
	conns      []*nodeConn
	origins    []*originState
	ringv      *ring
	ckptEvery  int
	ioTimeout  time.Duration
	onFailover func(FailoverEvent)
	sealed     bool
	closed     bool

	specs []regSpec
	slots int // registered output slots

	pl      placement
	outRuns [][]stream.Item // per-origin runs, reused: each is encoded before the next flush

	failovers int // completed origin adoptions
}

// nodeConn is one TCP session. It hosts its own origin plus any origins it
// adopted after their connections died; all per-origin state lives on
// originState, so the conn is pure transport.
type nodeConn struct {
	id        int
	addr      string
	c         *Client
	conn      net.Conn
	fr        frameReader
	snd       *sender
	enc       *wireEnc
	dec       *wireDec
	gate      *creditGate
	ioTimeout time.Duration

	ctrl       chan error    // control replies (OK) routed by the reader
	readerDone chan struct{} // closed when the reader goroutine exits
	stop       chan struct{} // stops the pinger
	stopOnce   sync.Once

	down  uint32 // atomic: connection condemned
	errMu sync.Mutex
	err   error
}

// originState is one logical node slot: the unit the ring addresses, the
// merge tier's input index, and the thing that survives its connection.
type originState struct {
	id   int
	host *nodeConn // current hosting connection; mutated only under Client.mu

	// mu guards everything below. It is held briefly by the feed (send
	// path, under Client.mu) and by the hosting connection's reader; it is
	// never held across a blocking call.
	mu sync.Mutex

	// Reader-side merge state.
	shapes   map[int][]string // row shape cache (reader-only; handed off at fail-over)
	seq      uint64           // emission sequence of the rows offered to the fan-in
	suppress uint64           // replayed rows to drop before the fan-in (already delivered)

	// Accounting (the identity checked by the soak harness).
	tuplesSent uint64
	beatsSent  uint64
	rowsRecv   uint64 // rows committed to the merge tier (suppressed rows excluded)
	lastDrain  NodeCounters

	// Checkpoint shipping + retention (fail-over enabled only).
	lsn          uint64 // batches sent to this origin since session start
	sinceCkpt    int
	ckptPending  bool
	ckptLSN      uint64
	ckptCounters NodeCounters
	ckptBlob     []byte
	retained     []retainedBatch // sent batches with lsn > ckptLSN, replay window

	drainCh chan NodeCounters // drain acknowledgments
}

// retainedBatch is one sent batch held for possible replay. Items are
// post-ingest-boundary (lateness, dedup, and dead-letter decisions already
// made), so replay can never re-screen or re-dead-letter them.
type retainedBatch struct {
	lsn   uint64
	items []stream.Item
}

// Dial connects to every node and performs the hello exchange.
func Dial(cfg Config) (*Client, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("cluster: no nodes configured")
	}
	var ecfg esl.Config
	for _, opt := range cfg.Options {
		opt(&ecfg)
	}
	if ecfg.JournalDir != "" || ecfg.CheckpointEvery != 0 {
		return nil, errors.New("cluster: engine durability options are not supported on the feed (cluster fail-over ships checkpoints in-band; set Config.CheckpointEvery)")
	}
	c := &Client{
		plan:       esl.New(),
		ckptEvery:  cfg.CheckpointEvery,
		ioTimeout:  cfg.IOTimeout,
		onFailover: cfg.OnFailover,
		ringv:      newRing(len(cfg.Nodes), cfg.VNodes),
	}
	c.front = shard.NewFront(shard.FrontConfig{
		Name:       "cluster",
		Partitions: len(cfg.Nodes),
		BatchSize:  cfg.BatchSize,
		Ingest:     ecfg.Ingest,
		Lock:       &c.mu,
		Resolve:    c.plan.StreamSchema,
		Partition:  c.ringv.node,
		Admit: func(items []stream.Item, offer func([]stream.Item) error) error {
			if err := c.readyLocked(); err != nil {
				return err
			}
			return offer(items)
		},
		Flush: func() error { return c.flushLocked(false) },
	})
	c.Door = c.front
	// When every node advertises a reorder boundary in its hello ack, the
	// feed ships out-of-order tuples verbatim (node-side slack absorbs them,
	// enabling node-side speculation); a single node without one pins the
	// feed to strict arrival order.
	reorder := true
	for i, addr := range cfg.Nodes {
		conn, err := dialRetry(addr, cfg.DialAttempts, cfg.DialBackoff)
		if err != nil {
			c.teardown()
			return nil, fmt.Errorf("cluster: node %d (%s): %w", i, addr, err)
		}
		nc := &nodeConn{
			id:         i,
			addr:       addr,
			c:          c,
			conn:       conn,
			fr:         frameReader{r: conn},
			enc:        newWireEnc(),
			dec:        newWireDec(),
			ioTimeout:  cfg.IOTimeout,
			ctrl:       make(chan error, 8),
			readerDone: make(chan struct{}),
			stop:       make(chan struct{}),
		}
		nc.snd = newSenderFunc(conn, cfg.Coalesce, nc.writeDeadline)
		c.conns = append(c.conns, nc)
		nc.enc.reset()
		encodeHello(nc.enc, i)
		if err := nc.snd.send(frameHello, nc.enc.Buf); err != nil {
			c.teardown()
			return nil, fmt.Errorf("cluster: node %d (%s): %w", i, addr, err)
		}
		if err := nc.snd.flush(); err != nil {
			c.teardown()
			return nil, fmt.Errorf("cluster: node %d (%s): %w", i, addr, err)
		}
		typ, payload, err := nc.readSync()
		if err != nil {
			c.teardown()
			return nil, fmt.Errorf("cluster: node %d (%s): hello: %w", i, addr, classifyNodeErr(err))
		}
		if typ != frameHelloAck {
			c.teardown()
			return nil, fmt.Errorf("cluster: node %d (%s): %w: expected hello ack, got frame %d", i, addr, ErrProtocol, typ)
		}
		nc.dec.Reset(payload)
		credit, reorders, err := decodeHelloAck(nc.dec)
		if err != nil {
			c.teardown()
			return nil, fmt.Errorf("cluster: node %d (%s): hello: %w", i, addr, err)
		}
		reorder = reorder && reorders
		nc.gate = newCreditGate(credit)
		c.origins = append(c.origins, &originState{
			id:      i,
			host:    nc,
			shapes:  map[int][]string{},
			drainCh: make(chan NodeCounters, 4),
		})
	}
	c.front.Reorder = reorder
	c.outRuns = make([][]stream.Item, len(c.origins))
	return c, nil
}

// dialRetry dials with exponential backoff between attempts.
func dialRetry(addr string, attempts int, backoff time.Duration) (net.Conn, error) {
	if attempts < 1 {
		attempts = 1
	}
	if backoff <= 0 {
		backoff = DefaultDialBackoff
	}
	var err error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			time.Sleep(backoff)
			if backoff < 2*time.Second {
				backoff *= 2
			}
		}
		var conn net.Conn
		conn, err = net.Dial("tcp", addr)
		if err == nil {
			return conn, nil
		}
	}
	return nil, err
}

// writeDeadline is the sender's preWrite hook.
func (nc *nodeConn) writeDeadline() error {
	if nc.ioTimeout <= 0 {
		return nil
	}
	return nc.conn.SetWriteDeadline(time.Now().Add(nc.ioTimeout))
}

// readSync reads one frame synchronously (hello and seal-time registration
// replies, before the reader goroutine starts), under a read deadline when
// configured.
func (nc *nodeConn) readSync() (byte, []byte, error) {
	if nc.ioTimeout > 0 {
		nc.conn.SetReadDeadline(time.Now().Add(3 * nc.ioTimeout))
		defer nc.conn.SetReadDeadline(time.Time{})
	}
	return nc.fr.next()
}

func (c *Client) teardown() {
	for _, nc := range c.conns {
		if nc.snd != nil {
			nc.snd.fail(io.ErrClosedPipe)
			nc.snd.close()
		}
		nc.conn.Close()
		nc.stopOnce.Do(func() { close(nc.stop) })
	}
}

// ---- registration -----------------------------------------------------------

// Exec applies a script: DDL/DML statements broadcast to every node,
// continuous queries (bare SELECT or INSERT INTO ... SELECT reading a
// stream) register for placement like RegisterQuery with no row callback.
// All registration must precede the first push.
func (c *Client) Exec(script string) ([]*esl.Query, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	stmts := esl.SplitStatements(script)
	var queries []*esl.Query
	for _, text := range stmts {
		st, err := esl.ParseOne(text)
		if err != nil {
			return queries, err
		}
		switch st.(type) {
		case *esl.Select, *esl.InsertSelect:
			q, err := c.registerLocked(fmt.Sprintf("q%d", c.slots+1), text, nil)
			if err != nil {
				return queries, err
			}
			queries = append(queries, q)
		default:
			if err := c.execDDLLocked(text); err != nil {
				return queries, err
			}
		}
	}
	return queries, nil
}

func (c *Client) execDDLLocked(text string) error {
	if err := c.checkRegistrableLocked(); err != nil {
		return err
	}
	if _, err := c.plan.Exec(text); err != nil {
		return err
	}
	c.specs = append(c.specs, regSpec{kind: specDDL, script: text})
	return nil
}

// RegisterQuery compiles a continuous query on the planning replica and
// defers node registration to Seal; onRow receives the merged output.
func (c *Client) RegisterQuery(name, sql string, onRow func(esl.Row)) (*esl.Query, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.registerLocked(name, sql, onRow)
}

func (c *Client) registerLocked(name, sql string, onRow func(esl.Row)) (*esl.Query, error) {
	if err := c.checkRegistrableLocked(); err != nil {
		return nil, err
	}
	q, err := c.plan.RegisterQuery(name, sql, nil)
	if err != nil {
		return nil, err
	}
	slot := c.front.AddSlot(onRow, nil)
	c.slots++
	c.specs = append(c.specs, regSpec{kind: specQuery, name: name, sql: sql, slot: slot, rows: onRow != nil, q: q})
	return q, nil
}

// Subscribe delivers every tuple entering the named stream (source or
// derived), merged across nodes in timestamp order.
func (c *Client) Subscribe(name string, fn func(*stream.Tuple)) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.checkRegistrableLocked(); err != nil {
		return err
	}
	if _, ok := c.plan.StreamSchema(name); !ok {
		return fmt.Errorf("cluster: unknown stream %s", name)
	}
	slot := c.front.AddSlot(nil, fn)
	c.slots++
	c.specs = append(c.specs, regSpec{kind: specSub, stream: name, slot: slot})
	return nil
}

func (c *Client) checkRegistrableLocked() error {
	if c.closed {
		return errClientClosed
	}
	if c.sealed {
		return errors.New("cluster: registration after the first push is not supported (placement is sealed; register everything before feeding)")
	}
	return nil
}

// specTargetsOrigin reports whether a spec must be present on an origin's
// engine: DDL and subscriptions everywhere, queries on their home (or
// everywhere when unhomed). Seal and fail-over adoption share this rule, so
// an adopted engine is registered exactly as the dead one was.
func (c *Client) specTargetsOrigin(spec regSpec, origin int) bool {
	switch spec.kind {
	case specQuery:
		home := c.pl.Homes[spec.q]
		return home < 0 || home == origin
	default:
		return true
	}
}

// ---- seal -------------------------------------------------------------------

// Seal computes placement and ships every deferred registration to its
// node(s). Idempotent; the first push seals implicitly.
func (c *Client) Seal() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sealLocked()
}

// readyLocked admits feed traffic: the client is open and sealed.
func (c *Client) readyLocked() error {
	if c.closed {
		return errClientClosed
	}
	return c.sealLocked()
}

func (c *Client) sealLocked() error {
	if c.sealed {
		return nil
	}
	if c.closed {
		return errClientClosed
	}
	c.pl = computePlacement(c.plan, c.ringv)
	c.front.Place(c.pl.Placement)
	for _, spec := range c.specs {
		for _, o := range c.origins {
			if !c.specTargetsOrigin(spec, o.id) {
				continue
			}
			if err := o.host.registerSync(o.id, spec); err != nil {
				return err
			}
		}
	}
	for _, nc := range c.conns {
		go nc.readLoop()
		if c.ioTimeout > 0 {
			go nc.pinger()
		}
	}
	c.sealed = true
	return nil
}

// sendSpec encodes and sends one registration spec for one origin.
func (nc *nodeConn) sendSpec(origin int, spec regSpec) error {
	nc.enc.reset()
	switch spec.kind {
	case specDDL:
		encodeFor(nc.enc, origin, frameExec)
		nc.enc.String(spec.script)
	case specQuery:
		encodeFor(nc.enc, origin, frameRegister)
		encodeRegister(nc.enc, spec.slot, spec.name, spec.sql, spec.rows)
	case specSub:
		encodeFor(nc.enc, origin, frameSub)
		encodeSubscribe(nc.enc, spec.slot, spec.stream)
	}
	if err := nc.snd.send(frameFor, nc.enc.Buf); err != nil {
		return fmt.Errorf("cluster: node %d: %w", nc.id, err)
	}
	return nil
}

// registerSync ships one spec and waits for its OK synchronously (seal
// time, before the reader goroutine exists).
func (nc *nodeConn) registerSync(origin int, spec regSpec) error {
	if err := nc.sendSpec(origin, spec); err != nil {
		return err
	}
	if err := nc.snd.flush(); err != nil {
		return fmt.Errorf("cluster: node %d: %w", nc.id, err)
	}
	rtyp, payload, err := nc.readSync()
	if err != nil {
		return fmt.Errorf("cluster: node %d: registration reply: %w", nc.id, classifyNodeErr(err))
	}
	switch rtyp {
	case frameOK:
		return nil
	case frameError:
		nc.dec.Reset(payload)
		msg, derr := nc.dec.String()
		if derr != nil {
			msg = "unreadable error frame"
		}
		return fmt.Errorf("cluster: node %d: %s", nc.id, msg)
	default:
		return fmt.Errorf("cluster: node %d: %w: expected ok, got frame %d", nc.id, ErrProtocol, rtyp)
	}
}

// Flush dispatches buffered input without waiting for node completion.
func (c *Client) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.readyLocked(); err != nil {
		return err
	}
	return c.flushLocked(true)
}

// flushLocked splits the pending run into per-origin runs and sends them,
// spending credit per batch frame.
//
// keepalive forces the trailing beat onto every origin, busy or not — an
// exact watermark cut. Explicit Flush and Drain use it; size-triggered
// flushes do not: an origin that received tuples this flush advances its
// own clock, and beating it anyway costs an O(queries) engine advance per
// flush per origin, which dominates the wire at higher node counts. The
// merge tier tolerates the slightly lagging watermark — rows buffer for
// at most one flush span longer.
//
// A dead host triggers fail-over (when enabled) and the batch retries on
// the adopting connection; with fail-over disabled the error is
// node-scoped and the surviving origins still receive their runs.
func (c *Client) flushLocked(keepalive bool) error {
	runs := c.outRuns
	c.front.Split(runs, keepalive)
	var firstErr error
	for s, o := range c.origins {
		if len(runs[s]) == 0 {
			continue
		}
		if err := c.sendOriginRunLocked(o, runs[s]); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			var nerr *NodeError
			if !errors.As(err, &nerr) {
				return err // cluster-fatal (all nodes down)
			}
		}
	}
	return firstErr
}

// sendOriginRunLocked delivers one item run to an origin's current host,
// failing over and retrying on the adopting connection when the host is
// dead. With fail-over disabled a dead host is a node-scoped error.
func (c *Client) sendOriginRunLocked(o *originState, items []stream.Item) error {
	for {
		host := o.host
		if !host.isDown() {
			err := host.sendBatchFor(o, items)
			if err == nil {
				c.afterBatchLocked(o, host, items)
				return nil
			}
			host.markDown(err)
		}
		if !c.failoverEnabled() {
			return host.nodeErr()
		}
		if err := c.failoverLocked(host, nil); err != nil {
			return err
		}
	}
}

// sendBatchFor encodes one item run as an origin-scoped Batch frame and
// sends it under the connection's credit gate. Accounting and retention
// happen in afterBatchLocked, only once the send was accepted.
func (nc *nodeConn) sendBatchFor(o *originState, items []stream.Item) error {
	nc.enc.reset()
	encodeFor(nc.enc, o.id, frameBatch)
	encodeBatch(nc.enc, items)
	wire := len(nc.enc.Buf) + 1 + frameOverhead
	if err := nc.gate.spend(wire); err != nil {
		return err
	}
	return nc.snd.send(frameFor, nc.enc.Buf)
}

// afterBatchLocked records one accepted batch: transport accounting, the
// per-origin LSN, retention for replay, and the checkpoint cadence. The
// batch may still be lost in flight — that is exactly what retention and
// replay-suppression absorb.
func (c *Client) afterBatchLocked(o *originState, host *nodeConn, items []stream.Item) {
	ckptDue := false
	var ckptLSN uint64
	o.mu.Lock()
	for _, it := range items {
		if it.IsHeartbeat() {
			o.beatsSent++
		} else {
			o.tuplesSent++
		}
	}
	o.lsn++
	if c.ckptEvery > 0 {
		o.retained = append(o.retained, retainedBatch{lsn: o.lsn, items: append([]stream.Item(nil), items...)})
		o.sinceCkpt++
		if o.sinceCkpt >= c.ckptEvery && !o.ckptPending {
			o.ckptPending = true
			o.sinceCkpt = 0
			ckptDue = true
			ckptLSN = o.lsn
		}
	}
	o.mu.Unlock()
	if ckptDue {
		// Best effort: a failed send means the connection is dying and the
		// next batch to this origin will fail over anyway.
		host.sendFor(o.id, frameCkptReq, func(e *wireEnc) { encodeCkptReq(e, ckptLSN) })
	}
}

// sendFor sends one origin-scoped control frame.
func (nc *nodeConn) sendFor(origin int, inner byte, build func(*wireEnc)) error {
	nc.enc.reset()
	encodeFor(nc.enc, origin, inner)
	if build != nil {
		build(nc.enc)
	}
	return nc.snd.send(frameFor, nc.enc.Buf)
}

func (c *Client) failoverEnabled() bool { return c.ckptEvery > 0 }

// ---- reader -----------------------------------------------------------------

func (nc *nodeConn) readLoop() {
	err := nc.readFrames()
	nc.markDown(fmt.Errorf("cluster: node %d: %w", nc.id, err))
	close(nc.readerDone)
}

func (nc *nodeConn) readFrames() error {
	c := nc.c
	for {
		if nc.ioTimeout > 0 {
			nc.conn.SetReadDeadline(time.Now().Add(3 * nc.ioTimeout))
		}
		typ, payload, err := nc.fr.next()
		if err != nil {
			return err
		}
		nc.dec.Reset(payload)
		switch typ {
		case frameFor:
			origin, inner, err := decodeFor(nc.dec)
			if err != nil {
				return err
			}
			if origin >= len(c.origins) {
				return protof("frame for unknown origin %d", origin)
			}
			if err := nc.readOriginFrame(c.origins[origin], inner); err != nil {
				return err
			}
		case frameOK:
			select {
			case nc.ctrl <- nil:
			default:
				return protof("unsolicited control reply")
			}
		case frameError:
			msg, derr := nc.dec.String()
			if derr != nil {
				msg = "unreadable error frame"
			}
			return errors.New(msg)
		case framePong:
			// Keepalive response: the read deadline reset is the effect.
		default:
			return fmt.Errorf("%w: unexpected frame %d", ErrProtocol, typ)
		}
	}
}

// readOriginFrame handles one origin-scoped frame on the reader goroutine.
func (nc *nodeConn) readOriginFrame(o *originState, inner byte) error {
	c := nc.c
	switch inner {
	case frameRows:
		// o.mu is taken before touching o.shapes: the same mutex chain that
		// hands the origin to an adopting connection publishes the dead
		// reader's shape-cache writes to this one.
		o.mu.Lock()
		events, err := decodeRows(nc.dec, c.plan.StreamSchema, o.shapes)
		if err != nil {
			o.mu.Unlock()
			return err
		}
		drop := 0
		if o.suppress > 0 {
			drop = len(events)
			if uint64(drop) > o.suppress {
				drop = int(o.suppress)
			}
			o.suppress -= uint64(drop)
		}
		kept := events[drop:]
		o.rowsRecv += uint64(len(kept))
		for i := range kept {
			o.seq++
			kept[i].Seq = o.seq
		}
		o.mu.Unlock()
		if len(kept) > 0 {
			// Watermarks arrive with acks; the fan-in keeps the highest.
			c.front.Output(o.id, kept, stream.MinTimestamp)
		}
	case frameAck:
		credit, wm, err := decodeAck(nc.dec)
		if err != nil {
			return err
		}
		nc.gate.refund(credit)
		c.front.Output(o.id, nil, wm)
	case frameDrainAck:
		wm, counters, err := decodeDrainAck(nc.dec)
		if err != nil {
			return err
		}
		c.front.Output(o.id, nil, wm)
		select {
		case o.drainCh <- counters:
		default:
			return protof("unsolicited drain ack for origin %d", o.id)
		}
	case frameCkpt:
		lsn, counters, blob, err := decodeSnap(nc.dec)
		if err != nil {
			return err
		}
		cp := append([]byte(nil), blob...) // blob aliases the frame buffer
		o.mu.Lock()
		if lsn >= o.ckptLSN {
			o.ckptLSN = lsn
			o.ckptCounters = counters
			o.ckptBlob = cp
			i := 0
			for i < len(o.retained) && o.retained[i].lsn <= lsn {
				i++
			}
			o.retained = append([]retainedBatch(nil), o.retained[i:]...)
			o.ckptPending = false
		}
		o.mu.Unlock()
	default:
		return protof("unexpected origin frame %d", inner)
	}
	return nil
}

// pinger keeps the connection's read path alive: one tiny Ping per
// IOTimeout, so a healthy node always produces bytes inside the reader's
// 3×IOTimeout deadline even when the feed is idle.
func (nc *nodeConn) pinger() {
	t := time.NewTicker(nc.ioTimeout)
	defer t.Stop()
	for {
		select {
		case <-nc.stop:
			return
		case <-t.C:
			if nc.snd.trySend(framePing, nil) != nil {
				return
			}
		}
	}
}

// markDown condemns the connection: classifies and records the cause,
// wakes every credit/sender waiter, closes the socket (unblocking the
// reader), and stops the pinger. Idempotent; the first cause wins.
func (nc *nodeConn) markDown(cause error) {
	wrapped := classifyNodeErr(cause)
	nc.errMu.Lock()
	if nc.err == nil {
		nc.err = wrapped
	} else {
		wrapped = nc.err
	}
	nc.errMu.Unlock()
	if atomic.CompareAndSwapUint32(&nc.down, 0, 1) {
		if nc.gate != nil {
			nc.gate.fail(wrapped)
		}
		nc.snd.fail(wrapped)
		nc.conn.Close()
		nc.stopOnce.Do(func() { close(nc.stop) })
	}
}

func (nc *nodeConn) isDown() bool { return atomic.LoadUint32(&nc.down) != 0 }

// nodeErr reports the connection's terminal error as a node-scoped error.
func (nc *nodeConn) nodeErr() error {
	nc.errMu.Lock()
	err := nc.err
	nc.errMu.Unlock()
	if err == nil {
		err = ErrNodeDown
	}
	return &NodeError{Node: nc.id, Addr: nc.addr, Err: err}
}

// ---- drain / close ----------------------------------------------------------

// Drain flushes everything — including tuples held back by reorder slack —
// waits for every origin's drain acknowledgment, and releases all buffered
// output in merged order. Accounting from each origin lands in Stats().
// A node death during the drain fails over (when enabled) and the drain
// resends to the adopting connection; with fail-over disabled dead origins
// contribute a node-scoped error while the survivors still drain.
func (c *Client) Drain() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.readyLocked(); err != nil {
		return err
	}
	if err := c.front.FlushIngest(); err != nil {
		return err
	}
	var firstErr error
	record := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	record(c.flushLocked(true))
	// Optimistic broadcast: every live host gets its drains up front so the
	// round trips overlap; the await loop below resends wherever a host
	// died in between.
	sent := make([]*nodeConn, len(c.origins))
	for _, o := range c.origins {
		host := o.host
		if host.isDown() {
			continue
		}
		if err := host.sendFor(o.id, frameDrain, nil); err == nil {
			sent[o.id] = host
		}
	}
	for _, o := range c.origins {
		counters, err := c.awaitDrainLocked(o, sent[o.id])
		if err != nil {
			record(err)
			continue
		}
		o.mu.Lock()
		o.lastDrain = counters
		cur := o.lsn
		due := c.ckptEvery > 0 && o.ckptLSN < cur
		if due {
			o.ckptPending = true
			o.sinceCkpt = 0
		}
		o.mu.Unlock()
		if due {
			// A drain barrier leaves the node idle with every batch applied
			// (applied == lsn by stream order), so re-arm a checkpoint at the
			// drained LSN: the retained replay window collapses as soon as
			// the cut ships back, instead of persisting across quiescence.
			// Best effort — a failed send means the host is dying and the
			// next batch fails over anyway.
			o.host.sendFor(o.id, frameCkptReq, func(e *wireEnc) { encodeCkptReq(e, cur) })
		}
	}
	c.front.FlushOutput()
	return firstErr
}

// awaitDrainLocked waits for one origin's drain acknowledgment, failing
// over and resending when the host dies mid-drain. A host that dies after
// acking is indistinguishable from one that died before — the resent drain
// returns identical totals (every batch is applied exactly once in either
// history), so stale results are simply discarded.
func (c *Client) awaitDrainLocked(o *originState, sentTo *nodeConn) (NodeCounters, error) {
	for round := 0; round <= len(c.conns)+2; round++ {
		if sentTo == nil || sentTo.isDown() {
			for {
				select {
				case <-o.drainCh:
					continue
				default:
				}
				break
			}
			host := o.host
			if host.isDown() {
				if !c.failoverEnabled() {
					return NodeCounters{}, host.nodeErr()
				}
				if err := c.failoverLocked(host, nil); err != nil {
					return NodeCounters{}, err
				}
				host = o.host
			}
			if err := host.sendFor(o.id, frameDrain, nil); err != nil {
				host.markDown(err)
				sentTo = nil
				continue
			}
			sentTo = host
		}
		select {
		case res := <-o.drainCh:
			return res, nil
		case <-sentTo.readerDone:
			sentTo = nil
		}
	}
	return NodeCounters{}, fmt.Errorf("cluster: origin %d: drain did not settle", o.id)
}

// Close drains best-effort, says goodbye, and tears the connections down.
// Idempotent: a second Close returns nil.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	var firstErr error
	if c.sealed {
		c.mu.Unlock()
		if err := c.Drain(); err != nil {
			firstErr = err
		}
		c.mu.Lock()
	}
	c.closed = true
	for _, nc := range c.conns {
		nc.snd.send(frameBye, nil)
		nc.snd.close()
		nc.conn.Close()
		nc.stopOnce.Do(func() { close(nc.stop) })
	}
	sealed := c.sealed
	c.mu.Unlock()
	if sealed {
		for _, nc := range c.conns {
			<-nc.readerDone
		}
	}
	return firstErr
}

// ---- observability ----------------------------------------------------------

// NodeStats is one origin's transport accounting, feed side and (as of the
// last drain) node side.
type NodeStats struct {
	Addr         string // the origin's original node address
	Host         int    // connection currently hosting the origin
	TuplesSent   uint64
	BeatsSent    uint64
	RowsReceived uint64
	Node         NodeCounters
}

// ClusterStats aggregates per-origin accounting.
type ClusterStats struct {
	Nodes     []NodeStats
	Failovers int
}

// Stats reports transport accounting. Node-side counters are those shipped
// with the most recent drain acknowledgment; call Drain first for an exact
// cut. The soak harness checks the identity TuplesSent == Node.Tuples and
// RowsReceived == Node.Rows per origin — an identity that holds across
// fail-overs, because an adopted engine inherits the dead engine's
// counters at the checkpoint cut and replayed rows are suppressed before
// they are counted.
func (c *Client) Stats() ClusterStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := ClusterStats{Failovers: c.failovers}
	for _, o := range c.origins {
		o.mu.Lock()
		st.Nodes = append(st.Nodes, NodeStats{
			Addr:         c.conns[o.id].addr,
			Host:         o.host.id,
			TuplesSent:   o.tuplesSent,
			BeatsSent:    o.beatsSent,
			RowsReceived: o.rowsRecv,
			Node:         o.lastDrain,
		})
		o.mu.Unlock()
	}
	return st
}

// PlacementReport describes the sealed placement for tests and tooling.
type PlacementReport struct {
	// Streams maps stream name to a route description, e.g.
	// "guard-keyed(readerid)", "keyed(tagid)", "pinned", "free".
	Streams map[string]string
	// Queries maps query name to its home node (-1 = all nodes).
	Queries map[string]int
	// ExactClock reports the node-0 exact heartbeat mirror.
	ExactClock bool
}

// Placement seals the client and reports the computed placement.
func (c *Client) Placement() (PlacementReport, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.sealLocked(); err != nil {
		return PlacementReport{}, err
	}
	rep := PlacementReport{Streams: map[string]string{}, Queries: map[string]int{}, ExactClock: c.pl.ExactClock}
	for name, rt := range c.pl.Routes {
		switch {
		case c.pl.guarded[name]:
			rep.Streams[name] = "guard-keyed(" + rt.KeyCol + ")"
		case rt.Mode == shard.RouteKeyed:
			rep.Streams[name] = "keyed(" + rt.KeyCol + ")"
		case rt.Mode == shard.RoutePinned:
			rep.Streams[name] = "pinned"
		default:
			rep.Streams[name] = "free"
		}
	}
	for q, home := range c.pl.Homes {
		rep.Queries[q.Name] = home
	}
	return rep, nil
}
