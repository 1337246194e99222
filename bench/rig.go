package main

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/esl"
	"repro/internal/shard"
	"repro/internal/stream"
)

// target is the engine surface the feed drives; esl.Engine, shard.Engine and
// cluster.Client all provide it.
type target interface {
	Exec(script string) ([]*esl.Query, error)
	RegisterQuery(name, sql string, onRow func(esl.Row)) (*esl.Query, error)
	StreamSchema(name string) (*stream.Schema, bool)
	PushBatch(items []stream.Item) error
	Drain() error
}

type topology int

const (
	topoSerial topology = iota
	topoShard2
	topoCluster2
)

// rig is one constructed system under test: the target plus the concrete
// handles the per-layer metrics read public stats from.
type rig struct {
	target
	serial  *esl.Engine
	sharded *shard.Engine
	client  *cluster.Client
	nodes   []*benchNode
	queries []*esl.Query
	// setup is the wall time from construction to ready-for-first-event.
	setup time.Duration
	// setupSpans breaks setup down for the traced run.
	dial, ddl, register, preload, seal time.Duration
}

// rigConfig is what a workload asks of the builder.
type rigConfig struct {
	topo topology
	opts []esl.Option
	// batch is the feed batch size; sharded and clustered targets flush to
	// their workers at the same size so a paced batch is not held back.
	batch int
}

// buildRig constructs the target, applies DDL, registers every query with
// the sink, preloads tables and (cluster) seals — everything a deployment
// does before its first event. Its wall time is setup_s.
func buildRig(cfg rigConfig, in *input, sk *sink) (*rig, error) {
	start := time.Now()
	r := &rig{}
	switch cfg.topo {
	case topoSerial:
		r.serial = esl.New(cfg.opts...)
		r.target = r.serial
	case topoShard2:
		r.sharded = shard.New(2, cfg.opts...)
		r.sharded.SetBatchSize(cfg.batch)
		r.target = r.sharded
	case topoCluster2:
		t0 := time.Now()
		addrs := make([]string, 2)
		for i := range addrs {
			bn, err := startNode()
			if err != nil {
				r.close()
				return nil, err
			}
			r.nodes = append(r.nodes, bn)
			addrs[i] = bn.addr
		}
		c, err := cluster.Dial(cluster.Config{Nodes: addrs, BatchSize: cfg.batch, Options: cfg.opts})
		if err != nil {
			r.close()
			return nil, err
		}
		r.client = c
		r.target = c
		r.dial = time.Since(t0)
	}
	t0 := time.Now()
	if _, err := r.Exec(in.ddl); err != nil {
		r.close()
		return nil, fmt.Errorf("ddl: %w", err)
	}
	r.ddl = time.Since(t0)
	t0 = time.Now()
	for qi, q := range in.queries {
		h, err := r.RegisterQuery(q.name, q.sql, sk.callback(qi))
		if err != nil {
			r.close()
			return nil, fmt.Errorf("register %s: %w", q.name, err)
		}
		r.queries = append(r.queries, h)
	}
	r.register = time.Since(t0)
	if in.probe.tableRows > 0 {
		t0 = time.Now()
		if err := dirtyPreload(r.serial, in.probe.tableRows); err != nil {
			r.close()
			return nil, fmt.Errorf("preload: %w", err)
		}
		r.preload = time.Since(t0)
	}
	if r.client != nil {
		t0 = time.Now()
		if err := r.client.Seal(); err != nil {
			r.close()
			return nil, fmt.Errorf("seal: %w", err)
		}
		r.seal = time.Since(t0)
	}
	r.setup = time.Since(start)
	return r, nil
}

// close stops everything the rig started and waits for it.
func (r *rig) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if r.sharded != nil {
		keep(r.sharded.Close())
	}
	if r.client != nil {
		keep(r.client.Close())
	}
	if r.serial != nil {
		keep(r.serial.CloseJournal())
	}
	for _, bn := range r.nodes {
		keep(bn.stop())
	}
	return first
}

// benchNode is one in-process cluster node behind a bench-owned loopback
// listener, with its accepted connection wrapped so wire volume and the
// node's time blocked in Read/Write are observable from outside.
type benchNode struct {
	addr string
	l    net.Listener
	done chan error
	mu   sync.Mutex
	conn *meterConn
}

// nodeCredit is the byte credit each node grants the feed. The default
// (4 MiB) holds a whole max phase, so the feed would never block and the
// node that hosts the pinned queries would fall a phase behind the other;
// the fan-in tier buffers 4096 rows and past that releases rows ahead of the
// lagging origin, out of order. At 64 KiB (about 1400 readings) the
// closed loop runs against the back-pressure it is there to measure and the
// nodes stay within the fan-in's buffer of each other.
const nodeCredit = 64 << 10

func startNode() (*benchNode, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	bn := &benchNode{addr: l.Addr().String(), l: l, done: make(chan error, 1)}
	go func() {
		c, err := l.Accept()
		if err != nil {
			bn.done <- nil // listener closed before a feed connected
			return
		}
		mc := &meterConn{Conn: c}
		bn.mu.Lock()
		bn.conn = mc
		bn.mu.Unlock()
		err = cluster.NewNode(cluster.NodeConfig{Credit: nodeCredit}).Serve(mc)
		c.Close()
		bn.done <- err
	}()
	return bn, nil
}

// stop closes the listener and waits for the session to end.
func (bn *benchNode) stop() error {
	bn.l.Close()
	return <-bn.done
}

func (bn *benchNode) meter() *meterConn {
	bn.mu.Lock()
	defer bn.mu.Unlock()
	return bn.conn
}

// meterConn counts bytes and the time its owner (the node session) spends
// inside Read — idle, waiting for the feed — and Write — blocked on the
// feed draining rows.
type meterConn struct {
	net.Conn
	bytesIn, bytesOut atomic.Int64
	readWait, writeNs atomic.Int64
}

func (c *meterConn) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Read(p)
	c.readWait.Add(time.Since(t0).Nanoseconds())
	c.bytesIn.Add(int64(n))
	return n, err
}

func (c *meterConn) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Write(p)
	c.writeNs.Add(time.Since(t0).Nanoseconds())
	c.bytesOut.Add(int64(n))
	return n, err
}
