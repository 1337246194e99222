package cluster

// The engine node: one TCP session hosting one engine per *origin* — its
// own, plus any it adopts when the feed fails a dead peer's work over. The
// node is deliberately thin: all placement and fail-over intelligence
// lives in the feed, and the node processes frames synchronously — decode
// a batch, push it through the addressed engine, drain to a deterministic
// cut, ship the output rows, acknowledge the batch's bytes back as credit.
// Backpressure is therefore structural: at most one batch is being
// processed while the next is in flight.
//
// Every v2 data/control frame is origin-scoped (wrapped in a For frame);
// the availability verbs are Adopt (host a fresh engine for a dead peer's
// origin), Restore (load a shipped checkpoint into it), and CkptReq (cut a
// checkpoint at a feed-verified batch LSN and ship it back).

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/esl"
	"repro/internal/shard"
	"repro/internal/stream"
)

// NodeConfig tunes one engine node.
type NodeConfig struct {
	// Shards is the node-local worker shard count (the node hosts a full
	// sharded engine, so in-process partitioning composes with cluster
	// partitioning). 0 means 1. Adopted engines are built with the same
	// shard count; a restore shipped from a node with a different count is
	// rejected by the snapshot codec, the session dies, and the feed
	// retries the adoption on another survivor — keep counts homogeneous
	// across a fail-over fleet.
	Shards int
	// Credit is the byte credit granted to the feed (0 = DefaultCredit).
	Credit int
	// Coalesce is the outbound sender budget (0 = DefaultCoalesce).
	Coalesce int
	// IOTimeout bounds socket operations: per-Write deadlines, and a read
	// deadline of 3×IOTimeout refreshed per frame. The feed pings every
	// IOTimeout when configured symmetrically, so a healthy-but-idle feed
	// never trips it, while a vanished feed ends the session instead of
	// leaking it. 0 disables deadlines.
	IOTimeout time.Duration
	// Options configures each hosted serial engine (esl.WithSlack,
	// esl.WithLateness, ...). A node-local reorder boundary lets queries
	// registered with CONSISTENCY FAST/MIDDLE speculate on the node: their
	// +/− records ship to the feed tagged with polarity (wire v3). Ignored
	// when Shards > 1 — the sharded engine sits behind its own boundary and
	// runs such queries strict.
	Options []esl.Option
}

// Node serves feed sessions. Each session gets fresh engines: the cluster
// owns no durable node-local state — fail-over ships checkpoints through
// the feed, which is the retention point.
type Node struct {
	cfg NodeConfig
}

// NewNode returns a node with the given configuration.
func NewNode(cfg NodeConfig) *Node {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Credit <= 0 {
		cfg.Credit = DefaultCredit
	}
	return &Node{cfg: cfg}
}

// ListenAndServe accepts one feed session on l and serves it to completion.
// One session per process run keeps the harness honest: with IOTimeout set
// a session whose feed vanishes times out and ends, so the node cannot
// outlive its feed silently.
func (n *Node) ListenAndServe(l net.Listener) error {
	conn, err := l.Accept()
	if err != nil {
		return err
	}
	defer conn.Close()
	return n.Serve(conn)
}

// nodeEngine is the engine surface a session drives. Both the serial
// esl.Engine and the sharded wrapper satisfy it; a single-shard node runs
// the serial engine directly — the shard wrapper's worker channels and
// drain barriers buy nothing at shards=1 and cost real per-batch latency
// on small machines.
type nodeEngine interface {
	Exec(script string) ([]*esl.Query, error)
	RegisterQuery(name, sql string, onRow func(esl.Row)) (*esl.Query, error)
	Subscribe(name string, fn func(*stream.Tuple)) error
	StreamSchema(name string) (*stream.Schema, bool)
	PushBatch(items []stream.Item) error
	Drain() error
	Now() stream.Timestamp
	Checkpoint(w io.Writer) error
	Restore(r io.Reader) error
}

// hostedEngine is one origin's engine plus its session-scoped state. All
// per-origin bookkeeping lives here so an adopted origin is
// indistinguishable from a native one.
type hostedEngine struct {
	eng   nodeEngine
	close func()

	applied  uint64 // batches applied (the node-side LSN)
	counters NodeCounters

	// rows collects engine output between frames. Callbacks arrive on
	// worker goroutines during PushBatch/Drain; the per-batch drain
	// barrier guarantees they have all landed before the buffer is read.
	rmu    sync.Mutex
	rows   []shard.Event
	shapes map[int]*string

	scratch []stream.Item
	arena   tupleArena
}

// Serve runs one feed session over conn until Bye, EOF, or a fatal error.
func (n *Node) Serve(conn net.Conn) error {
	s := &nodeSession{
		node:    n,
		conn:    conn,
		fr:      frameReader{r: conn},
		enc:     newWireEnc(),
		dec:     newWireDec(),
		engines: map[int]*hostedEngine{},
	}
	s.snd = newSenderFunc(conn, n.cfg.Coalesce, s.writeDeadline)
	defer s.snd.close()
	defer func() {
		for _, h := range s.engines {
			if h.close != nil {
				h.close()
			}
		}
	}()
	err := s.run()
	if err != nil {
		s.snd.fail(err)
	}
	return err
}

type nodeSession struct {
	node    *Node
	conn    net.Conn
	selfID  int
	engines map[int]*hostedEngine
	fr      frameReader
	enc     *wireEnc
	dec     *wireDec
	snd     *sender
}

func (s *nodeSession) writeDeadline() error {
	if s.node.cfg.IOTimeout <= 0 {
		return nil
	}
	return s.conn.SetWriteDeadline(time.Now().Add(s.node.cfg.IOTimeout))
}

// newHosted builds a fresh engine with the node's configured shard count.
func (s *nodeSession) newHosted() *hostedEngine {
	h := &hostedEngine{shapes: map[int]*string{}}
	if s.node.cfg.Shards == 1 {
		h.eng = esl.New(s.node.cfg.Options...)
	} else {
		sh := shard.New(s.node.cfg.Shards)
		h.eng = sh
		h.close = func() { sh.Close() }
	}
	return h
}

// next reads one frame under the configured read deadline.
func (s *nodeSession) next() (byte, []byte, error) {
	if d := s.node.cfg.IOTimeout; d > 0 {
		s.conn.SetReadDeadline(time.Now().Add(3 * d))
	}
	return s.fr.next()
}

func (s *nodeSession) run() error {
	// Hello exchange pins the protocol version before anything is decoded
	// against interning state, and names this node's own origin.
	typ, payload, err := s.next()
	if err != nil {
		return err
	}
	if typ != frameHello {
		return protof("expected hello, got frame type %d", typ)
	}
	s.dec.Reset(payload)
	id, err := decodeHello(s.dec)
	if err != nil {
		return s.fatal(err)
	}
	s.selfID = id
	host := s.newHosted()
	s.engines[id] = host
	// Advertise the reorder boundary so the feed knows it may ship
	// out-of-order tuples for this node's boundary to absorb. Only the
	// serial engine exposes the probe; sharded nodes reorder behind their
	// own merge tier and keep the strict contract, so they advertise false.
	reorders := false
	if e, ok := host.eng.(*esl.Engine); ok {
		reorders = e.Reorders()
	}
	s.enc.reset()
	encodeHelloAck(s.enc, s.node.cfg.Credit, reorders)
	if err := s.snd.send(frameHelloAck, s.enc.Buf); err != nil {
		return err
	}

	for {
		typ, payload, err := s.next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil // feed vanished between frames: clean enough
			}
			return err
		}
		s.dec.Reset(payload)
		switch typ {
		case frameFor:
			origin, inner, err := decodeFor(s.dec)
			if err != nil {
				return s.fatal(err)
			}
			if err := s.originFrame(origin, inner, payload); err != nil {
				return err
			}
		case framePing:
			if err := s.snd.trySend(framePong, nil); err != nil {
				return err
			}
			if err := s.snd.flush(); err != nil {
				return err
			}
		case frameBye:
			return s.snd.flush()
		default:
			return s.fatal(protof("unexpected frame type %d", typ))
		}
	}
}

// originFrame dispatches one origin-scoped frame. payload is the full For
// payload (needed for batch wire-size accounting).
func (s *nodeSession) originFrame(origin int, inner byte, payload []byte) error {
	h := s.engines[origin]
	if inner == frameAdopt {
		if h != nil {
			return s.fatal(protof("origin %d is already hosted here", origin))
		}
		s.engines[origin] = s.newHosted()
		return s.control(frameOK, nil)
	}
	if h == nil {
		return s.fatal(protof("frame %d for unhosted origin %d", inner, origin))
	}
	switch inner {
	case frameExec:
		script, err := s.dec.String()
		if err != nil {
			return s.fatal(err)
		}
		if _, err := h.eng.Exec(script); err != nil {
			return s.fatal(err)
		}
		return s.control(frameOK, nil)
	case frameRegister:
		slot, name, sql, wantRows, err := decodeRegister(s.dec)
		if err != nil {
			return s.fatal(err)
		}
		var onRow func(esl.Row)
		if wantRows {
			onRow = func(row esl.Row) {
				h.rmu.Lock()
				h.rows = append(h.rows, shard.Event{Slot: slot, Row: row})
				h.rmu.Unlock()
			}
		}
		if _, err := h.eng.RegisterQuery(name, sql, onRow); err != nil {
			return s.fatal(err)
		}
		return s.control(frameOK, nil)
	case frameSub:
		slot, streamName, err := decodeSubscribe(s.dec)
		if err != nil {
			return s.fatal(err)
		}
		if err := h.eng.Subscribe(streamName, func(t *stream.Tuple) {
			h.rmu.Lock()
			h.rows = append(h.rows, shard.Event{Slot: slot, Tup: t})
			h.rmu.Unlock()
		}); err != nil {
			return s.fatal(err)
		}
		return s.control(frameOK, nil)
	case frameBatch:
		wireBytes := len(payload) + 1 + frameOverhead
		h.scratch = h.scratch[:0]
		items, err := decodeBatch(s.dec, h.eng.StreamSchema, h.scratch, &h.arena)
		h.scratch = items
		if err != nil {
			return s.fatal(err)
		}
		if err := s.dec.Finish(); err != nil {
			return s.fatal(err)
		}
		for _, it := range items {
			if it.IsHeartbeat() {
				h.counters.Beats++
			} else {
				h.counters.Tuples++
			}
		}
		if err := h.eng.PushBatch(items); err != nil {
			return s.fatal(err)
		}
		// Drain to a deterministic cut: all rows for this batch are in
		// h.rows when Drain returns (worker barrier + fan-in flush), so
		// the Ack watermark can never overrun a pending row — and a
		// checkpoint cut after this point captures the batch entirely.
		if err := h.eng.Drain(); err != nil {
			return s.fatal(err)
		}
		h.applied++
		if err := s.shipRows(origin, h); err != nil {
			return err
		}
		return s.sendFor(origin, frameAck, func(e *wireEnc) {
			encodeAck(e, wireBytes, h.eng.Now())
		})
	case frameRestore:
		lsn, counters, blob, err := decodeSnap(s.dec)
		if err != nil {
			return s.fatal(err)
		}
		if err := h.eng.Restore(bytes.NewReader(blob)); err != nil {
			return s.fatal(fmt.Errorf("restore origin %d: %w", origin, err))
		}
		h.applied = lsn
		h.counters = counters
		return s.control(frameOK, nil)
	case frameCkptReq:
		lsn, err := decodeCkptReq(s.dec)
		if err != nil {
			return s.fatal(err)
		}
		// The feed addresses the cut by its own batch LSN; a mismatch means
		// the two sides disagree about what has been applied, and a
		// checkpoint cut there would silently corrupt a later replay.
		if lsn != h.applied {
			return s.fatal(protof("checkpoint LSN %d does not match applied batch count %d for origin %d", lsn, h.applied, origin))
		}
		var buf bytes.Buffer
		if err := h.eng.Checkpoint(&buf); err != nil {
			return s.fatal(fmt.Errorf("checkpoint origin %d: %w", origin, err))
		}
		if buf.Len()+64 > MaxFrame {
			return s.fatal(fmt.Errorf("checkpoint origin %d: snapshot (%d bytes) too large to ship in one frame", origin, buf.Len()))
		}
		return s.sendFor(origin, frameCkpt, func(e *wireEnc) {
			encodeSnap(e, h.applied, h.counters, buf.Bytes())
		})
	case frameDrain:
		if err := h.eng.Drain(); err != nil {
			return s.fatal(err)
		}
		if err := s.shipRows(origin, h); err != nil {
			return err
		}
		if err := s.sendFor(origin, frameDrainAck, func(e *wireEnc) {
			encodeDrainAck(e, h.eng.Now(), h.counters)
		}); err != nil {
			return err
		}
		return s.snd.flush()
	default:
		return s.fatal(protof("unexpected origin frame type %d", inner))
	}
}

// sendFor sends one origin-scoped frame built by fn.
func (s *nodeSession) sendFor(origin int, inner byte, fn func(*wireEnc)) error {
	s.enc.reset()
	encodeFor(s.enc, origin, inner)
	if fn != nil {
		fn(s.enc)
	}
	return s.snd.send(frameFor, s.enc.Buf)
}

// shipRows encodes and sends the buffered output events, if any.
func (s *nodeSession) shipRows(origin int, h *hostedEngine) error {
	h.rmu.Lock()
	events := h.rows
	h.rows = nil
	h.rmu.Unlock()
	if len(events) == 0 {
		return nil
	}
	h.counters.Rows += uint64(len(events))
	return s.sendFor(origin, frameRows, func(e *wireEnc) {
		encodeRows(e, events, h.shapes)
	})
}

// control sends a registration-path reply and flushes: the feed blocks on
// these, so latency matters more than coalescing.
func (s *nodeSession) control(typ byte, payload []byte) error {
	if err := s.snd.send(typ, payload); err != nil {
		return err
	}
	return s.snd.flush()
}

// fatal reports err to the feed on a best-effort Error frame and returns it.
func (s *nodeSession) fatal(err error) error {
	s.enc.reset()
	s.enc.String(err.Error())
	if serr := s.snd.send(frameError, s.enc.Buf); serr == nil {
		s.snd.flush()
	}
	return fmt.Errorf("cluster node: %w", err)
}
