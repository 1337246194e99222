package cluster

// Fail-over tests: kill a node's connection mid-stream and prove the
// cluster still produces exactly the serial engine's rows (sorted multiset
// + accounting identity), across kill targets (node 0 vs not), node
// counts, sharded nodes, back-to-back kills, and kills before the first
// checkpoint cut (genesis replay). Plus the satellite contracts: typed
// timeouts from a stalled listener, dial retry/backoff, node-scoped errors
// without fail-over, Close idempotence, and session/teardown races.

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/esl"
	"repro/internal/stream"
)

// killFleet runs n single-session nodes whose accepted connections can be
// severed on demand — the multi-process harness's kill -9, in-process.
type killFleet struct {
	t      *testing.T
	addrs  []string
	mu     sync.Mutex
	conns  []net.Conn
	killed []bool
	done   []chan error
}

func startKillableNodes(t *testing.T, n, shards int, ioTimeout time.Duration) *killFleet {
	t.Helper()
	f := &killFleet{
		t:      t,
		addrs:  make([]string, n),
		conns:  make([]net.Conn, n),
		killed: make([]bool, n),
		done:   make([]chan error, n),
	}
	for i := range f.addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		f.addrs[i] = l.Addr().String()
		f.done[i] = make(chan error, 1)
		go func(i int, l net.Listener) {
			defer l.Close()
			conn, err := l.Accept()
			if err != nil {
				f.done[i] <- err
				return
			}
			f.mu.Lock()
			f.conns[i] = conn
			f.mu.Unlock()
			defer conn.Close()
			f.done[i] <- NewNode(NodeConfig{Shards: shards, IOTimeout: ioTimeout}).Serve(conn)
		}(i, l)
	}
	return f
}

// kill severs node i's session from the server side (connection reset).
func (f *killFleet) kill(i int) {
	f.mu.Lock()
	f.killed[i] = true
	conn := f.conns[i]
	f.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

// wait blocks for every session; killed nodes may end however they like,
// surviving nodes must end cleanly.
func (f *killFleet) wait() {
	for i := range f.done {
		err := <-f.done[i]
		f.mu.Lock()
		killed := f.killed[i]
		f.mu.Unlock()
		if err != nil && !killed {
			f.t.Errorf("node %d session: %v", i, err)
		}
	}
}

// failoverScenario is the shared workload: reader-local homed SEQ queries,
// a broadcast subscription, heartbeats, and ~300 pushes. after(step) runs
// between pushes — the kill hook.
func failoverScenario(t *testing.T, r crunner, s *csink, after func(step int)) {
	t.Helper()
	r.exec(t, clusterDDL)
	for i := 0; i < 6; i++ {
		rd := fmt.Sprintf("R%d", i)
		r.register(t, fmt.Sprintf("local%d", i), fmt.Sprintf(`
			SELECT C1.tagid, C1.tagtime, C2.tagtime FROM C1, C2
			WHERE SEQ(C1, C2) AND C1.tagid=C2.tagid
			AND C1.readerid='%s' AND C2.readerid='%s'`, rd, rd), s.row(rd))
	}
	r.subscribe(t, "C2", s.tup("c2"))
	step, at := 0, 0
	push := func(stn, rd, tag string) {
		at++
		r.push(t, stn, ts(at), stream.Str(rd), stream.Str(tag), stream.Time(ts(at)))
		step++
		if after != nil {
			after(step)
		}
	}
	for round := 0; round < 12; round++ {
		for i := 0; i < 6; i++ {
			rd := fmt.Sprintf("R%d", i)
			push("C1", rd, fmt.Sprintf("tag-%d-%d", i, round))
		}
		if round%4 == 2 {
			r.heartbeat(t, ts(at+1))
			at++
		}
		for i := 0; i < 6; i++ {
			rd := fmt.Sprintf("R%d", i)
			if (round+i)%5 == 0 {
				continue // some pairs never complete
			}
			push("C2", rd, fmt.Sprintf("tag-%d-%d", i, round))
		}
	}
}

// runFailoverEquiv runs the scenario serially, then on a killable cluster
// with the given kill schedule (step → node), comparing sorted multisets
// and the accounting identity, and asserting every scheduled kill produced
// at least one fail-over event.
func runFailoverEquiv(t *testing.T, nodes, shards, batch, ckptEvery int, kills map[int]int) {
	t.Helper()
	serial := &csink{}
	se := esl.New()
	failoverScenario(t, &serialCRunner{e: se}, serial, nil)
	if err := se.Drain(); err != nil {
		t.Fatal(err)
	}
	want := serial.sorted()

	fleet := startKillableNodes(t, nodes, shards, 0)
	var evMu sync.Mutex
	var events []FailoverEvent
	client, err := Dial(Config{
		Nodes:           fleet.addrs,
		BatchSize:       batch,
		CheckpointEvery: ckptEvery,
		OnFailover: func(ev FailoverEvent) {
			evMu.Lock()
			events = append(events, ev)
			evMu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := &csink{}
	failoverScenario(t, &clusterCRunner{c: client}, got, func(step int) {
		if n, ok := kills[step]; ok {
			fleet.kill(n)
		}
	})
	if err := client.Drain(); err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, client)
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	fleet.wait()

	evMu.Lock()
	nevents := len(events)
	evs := append([]FailoverEvent(nil), events...)
	evMu.Unlock()
	if len(kills) > 0 && nevents < len(kills) {
		t.Errorf("scheduled %d kills but observed %d fail-over events: %+v", len(kills), nevents, evs)
	}
	for _, ev := range evs {
		if ev.From == ev.To {
			t.Errorf("fail-over event adopted onto the dead connection: %+v", ev)
		}
	}

	have := got.sorted()
	if len(have) != len(want) {
		t.Fatalf("row count: cluster %d vs serial %d (fail-overs: %d)", len(have), len(want), nevents)
	}
	for i := range want {
		if have[i] != want[i] {
			t.Fatalf("row %d:\ncluster: %s\nserial:  %s", i, have[i], want[i])
		}
	}
}

// TestFailoverKillNonZeroNode: 2 nodes, kill node 1 mid-stream.
func TestFailoverKillNonZeroNode(t *testing.T) {
	runFailoverEquiv(t, 2, 1, 4, 4, map[int]int{61: 1})
}

// TestFailoverKillNodeZero: node 0 is the pinned-work home — killing it
// moves the pinned origin (and the exact-clock mirror) onto node 1.
func TestFailoverKillNodeZero(t *testing.T) {
	runFailoverEquiv(t, 2, 1, 4, 4, map[int]int{53: 0})
}

// TestFailoverBackToBackKills: 4 nodes; node 1 dies, its origin is adopted
// (by node 2), then node 2 dies too — the survivor re-adopts both origins.
func TestFailoverBackToBackKills(t *testing.T) {
	runFailoverEquiv(t, 4, 1, 4, 4, map[int]int{41: 1, 83: 2})
}

// TestFailoverKillDuringDrainWindow: a kill on the very last push, so the
// drain path itself must detect the death, fail over, and resend.
func TestFailoverKillDuringDrainWindow(t *testing.T) {
	runFailoverEquiv(t, 2, 1, 4, 4, map[int]int{126: 1})
}

// TestFailoverBeforeFirstCheckpoint: the kill lands before any checkpoint
// was cut, so adoption replays the retained window from genesis.
func TestFailoverBeforeFirstCheckpoint(t *testing.T) {
	runFailoverEquiv(t, 2, 1, 4, 1<<20, map[int]int{31: 1})
}

// TestFailoverRestoresFromCheckpoint: a drain barrier guarantees every
// outstanding checkpoint reply has landed before the kill, so adoption must
// go through the snapshot-restore path — Restored set, CheckpointLSN > 0 —
// and replay only the short window past the cut, not from genesis. The
// output must still match the serial engine exactly (the re-emitted window
// is suppressed at the reader).
func TestFailoverRestoresFromCheckpoint(t *testing.T) {
	serial := &csink{}
	se := esl.New()
	failoverScenario(t, &serialCRunner{e: se}, serial, nil)
	if err := se.Drain(); err != nil {
		t.Fatal(err)
	}
	want := serial.sorted()

	fleet := startKillableNodes(t, 2, 1, 0)
	var evMu sync.Mutex
	var events []FailoverEvent
	client, err := Dial(Config{
		Nodes:           fleet.addrs,
		BatchSize:       2,
		CheckpointEvery: 1,
		OnFailover: func(ev FailoverEvent) {
			evMu.Lock()
			events = append(events, ev)
			evMu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := &csink{}
	failoverScenario(t, &clusterCRunner{c: client}, got, func(step int) {
		switch step {
		case 60:
			// Double drain barrier: the first re-arms a checkpoint at the
			// drained LSN, the second forces its reply (which precedes the
			// second drain ack in stream order) through the reader. After
			// this, ckptLSN == lsn deterministically on every origin.
			for i := 0; i < 2; i++ {
				if err := client.Drain(); err != nil {
					t.Fatal(err)
				}
			}
		case 64:
			fleet.kill(1)
		}
	})
	if err := client.Drain(); err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, client)
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	fleet.wait()

	evMu.Lock()
	evs := append([]FailoverEvent(nil), events...)
	evMu.Unlock()
	if len(evs) == 0 {
		t.Fatal("kill produced no fail-over event")
	}
	restored := false
	for _, ev := range evs {
		if !ev.Restored {
			continue
		}
		restored = true
		// The drain barrier at step 60 checkpointed ~half the feed's batches
		// (lsn in the high 20s per origin). Kill detection is lazy — writes
		// land in the dead socket's buffer — so the replay window runs from
		// the cut to wherever detection fired, but never from genesis
		// (~60+ batches for this scenario).
		if ev.CheckpointLSN < 10 {
			t.Errorf("restored fail-over checkpoint LSN %d; the drain barrier should have cut much later: %+v",
				ev.CheckpointLSN, ev)
		}
		if ev.ReplayedBatches > 50 {
			t.Errorf("restored fail-over replayed %d batches — a genesis-sized window despite the checkpoint: %+v",
				ev.ReplayedBatches, ev)
		}
	}
	if !restored {
		t.Fatalf("no fail-over restored from a checkpoint (genesis replay only): %+v", evs)
	}

	have := got.sorted()
	if len(have) != len(want) {
		t.Fatalf("row count: cluster %d vs serial %d", len(have), len(want))
	}
	for i := range want {
		if have[i] != want[i] {
			t.Fatalf("row %d:\ncluster: %s\nserial:  %s", i, have[i], want[i])
		}
	}
}

// TestFailoverShardedNodes: nodes run the sharded engine (in-process
// partitioning under cluster partitioning); checkpoints ship sharded
// snapshots and restore onto an equally sharded adopted engine.
func TestFailoverShardedNodes(t *testing.T) {
	runFailoverEquiv(t, 2, 2, 7, 3, map[int]int{67: 0})
}

// TestFailoverEveryBatchCheckpoint: ckptEvery=1 maximizes checkpoint
// traffic and minimizes the replay window — the cadence edge case.
func TestFailoverEveryBatchCheckpoint(t *testing.T) {
	runFailoverEquiv(t, 4, 1, 8, 1, map[int]int{90: 3})
}

// TestFailoverAllNodesDown: killing every node is cluster-fatal — the feed
// surfaces an error that is NOT node-scoped, and Close stays idempotent.
func TestFailoverAllNodesDown(t *testing.T) {
	fleet := startKillableNodes(t, 2, 1, 0)
	client, err := Dial(Config{Nodes: fleet.addrs, BatchSize: 2, CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Exec(clusterDDL); err != nil {
		t.Fatal(err)
	}
	if err := client.Subscribe("C1", func(*stream.Tuple) {}); err != nil {
		t.Fatal(err)
	}
	if err := client.Push("C1", ts(1), stream.Str("R0"), stream.Str("t0"), stream.Time(ts(1))); err != nil {
		t.Fatal(err)
	}
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}
	fleet.kill(0)
	fleet.kill(1)
	var ferr error
	deadline := time.Now().Add(5 * time.Second)
	for i := 2; ferr == nil; i++ {
		if time.Now().After(deadline) {
			t.Fatal("no error surfaced after killing every node")
		}
		if err := client.Push("C1", ts(i), stream.Str("R0"), stream.Str("t"), stream.Time(ts(i))); err != nil {
			ferr = err
			break
		}
		ferr = client.Flush()
	}
	var nerr *NodeError
	if errors.As(ferr, &nerr) {
		t.Fatalf("total cluster loss surfaced as node-scoped %v; want cluster-fatal", ferr)
	}
	if !errors.Is(ferr, ErrNodeDown) {
		t.Fatalf("cluster-fatal error does not wrap ErrNodeDown: %v", ferr)
	}
	client.Close() // best effort on a dead cluster
	if err := client.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	fleet.wait()
}

// TestNodeScopedErrorNoFailover: with fail-over disabled (CheckpointEvery
// 0) a killed node surfaces as a *NodeError naming exactly that node, the
// surviving node keeps streaming, and Close/Drain are not poisoned.
func TestNodeScopedErrorNoFailover(t *testing.T) {
	fleet := startKillableNodes(t, 2, 1, 0)
	client, err := Dial(Config{Nodes: fleet.addrs, BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Exec(clusterDDL); err != nil {
		t.Fatal(err)
	}
	got := &csink{}
	for i := 0; i < 2; i++ {
		rd := fmt.Sprintf("R%d", i)
		if _, err := client.RegisterQuery("local"+rd, fmt.Sprintf(`
			SELECT C1.tagid, C1.tagtime, C2.tagtime FROM C1, C2
			WHERE SEQ(C1, C2) AND C1.tagid=C2.tagid
			AND C1.readerid='%s' AND C2.readerid='%s'`, rd, rd), got.row(rd)); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := client.Placement()
	if err != nil {
		t.Fatal(err)
	}
	victim := rep.Queries["localR0"]
	if victim < 0 {
		t.Fatalf("query localR0 is unhomed: %+v", rep)
	}
	push := func(i int, rd string) error {
		return client.Push("C1", ts(i), stream.Str(rd), stream.Str(fmt.Sprintf("t%d", i)), stream.Time(ts(i)))
	}
	if err := push(1, "R0"); err != nil {
		t.Fatal(err)
	}
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}
	fleet.kill(victim)

	// Pushes routed to the dead node eventually surface a *NodeError naming
	// it; killing one node must not fail pushes wholesale before that.
	var nerr *NodeError
	deadline := time.Now().Add(5 * time.Second)
	probe := 2
	for ; nerr == nil; probe++ {
		if time.Now().After(deadline) {
			t.Fatal("kill never surfaced as a node error")
		}
		err := push(probe, "R0")
		if err == nil {
			err = client.Flush()
		}
		if err != nil {
			if !errors.As(err, &nerr) {
				t.Fatalf("dead node surfaced as non-node-scoped error: %v", err)
			}
		}
	}
	if nerr.Node != victim {
		t.Fatalf("node error names node %d, want %d: %v", nerr.Node, victim, nerr)
	}
	if !errors.Is(nerr, ErrNodeDown) {
		t.Fatalf("node error does not wrap ErrNodeDown: %v", nerr)
	}

	// The surviving node's slice keeps flowing: its homed query still gets
	// data and Drain/Close aren't poisoned by the dead peer (they report
	// the node-scoped error, but the survivor completes its drain).
	other := "R1"
	if victim == rep.Queries["localR1"] {
		t.Fatalf("both queries homed to the same node; placement: %+v", rep)
	}
	// Timestamps must clear the probe loop's high-water mark: on a loaded
	// box the kill can take many probe pushes to surface.
	for i := probe + 100; i < probe+104; i++ {
		if err := push(i, other); err != nil {
			var ne *NodeError
			if !errors.As(err, &ne) || ne.Node != victim {
				t.Fatalf("survivor push failed: %v", err)
			}
		}
	}
	err = client.Close()
	if err != nil {
		var ne *NodeError
		if !errors.As(err, &ne) || ne.Node != victim {
			t.Fatalf("Close poisoned beyond the dead node: %v", err)
		}
	}
	if err := client.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	fleet.kill(1 - victim) // release the survivor's Accept if still parked
	st := client.Stats()
	survivor := 1 - victim
	if st.Nodes[survivor].RowsReceived != st.Nodes[survivor].Node.Rows {
		t.Errorf("survivor accounting broken: %+v", st.Nodes[survivor])
	}
}

// TestDoubleCloseIdempotent: Close twice on a healthy cluster; also Close
// before Seal (no readers started yet — the teardown-ordering edge).
func TestDoubleCloseIdempotent(t *testing.T) {
	addrs, wait := startNodes(t, 2, 1)
	client, err := Dial(Config{Nodes: addrs})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Exec(clusterDDL); err != nil {
		t.Fatal(err)
	}
	if err := client.Push("C1", ts(1), stream.Str("R0"), stream.Str("t0"), stream.Time(ts(1))); err != nil {
		t.Fatal(err)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if err := client.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	wait()

	// Unsealed teardown: no reader goroutines exist; Close must not hang
	// waiting for them and must stay idempotent.
	fleet := startKillableNodes(t, 2, 1, 0)
	c2, err := Dial(Config{Nodes: fleet.addrs})
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c2.Close(); err != nil {
		t.Fatalf("second unsealed Close: %v", err)
	}
	fleet.kill(0)
	fleet.kill(1)
	fleet.wait()
}

// stallServer accepts one connection and answers the handshake and
// registration frames, then goes silent forever: batches are swallowed, no
// acks, no pongs. The feed's deadline machinery must classify it.
func stallServer(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		t.Cleanup(func() { conn.Close() })
		fr := frameReader{r: conn}
		enc := newWireEnc()
		dec := newWireDec()
		for {
			typ, payload, err := fr.next()
			if err != nil {
				return
			}
			switch typ {
			case frameHello:
				enc.reset()
				encodeHelloAck(enc, DefaultCredit, false)
				conn.Write(appendFrame(nil, frameHelloAck, enc.Buf))
			case frameFor:
				// Registration frames need OKs for Seal to complete; data
				// frames (and pings) are swallowed whole — the stall.
				dec.Reset(payload)
				if _, inner, err := decodeFor(dec); err == nil {
					switch inner {
					case frameExec, frameRegister, frameSub:
						conn.Write(appendFrame(nil, frameOK, nil))
					}
				}
			}
		}
	}()
	return l.Addr().String()
}

// TestStalledNodeTimeout: a node that stops responding (but keeps the TCP
// session open) trips the read deadline and surfaces ErrNodeTimeout — the
// satellite contract that nothing blocks forever.
func TestStalledNodeTimeout(t *testing.T) {
	addr := stallServer(t)
	client, err := Dial(Config{Nodes: []string{addr}, BatchSize: 1, IOTimeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Exec(`CREATE STREAM S(a, tagtime);`); err != nil {
		t.Fatal(err)
	}
	if err := client.Subscribe("S", func(*stream.Tuple) {}); err != nil {
		t.Fatal(err)
	}
	var terr error
	deadline := time.Now().Add(10 * time.Second)
	for i := 1; terr == nil; i++ {
		if time.Now().After(deadline) {
			t.Fatal("stalled node never surfaced a timeout")
		}
		terr = client.Push("S", ts(i), stream.Str("x"), stream.Time(ts(i)))
		if terr == nil {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if !errors.Is(terr, ErrNodeTimeout) {
		t.Fatalf("stalled node error is not ErrNodeTimeout: %v", terr)
	}
	if !errors.Is(terr, ErrNodeDown) {
		t.Fatalf("ErrNodeTimeout must also match ErrNodeDown: %v", terr)
	}
	var nerr *NodeError
	if !errors.As(terr, &nerr) || nerr.Node != 0 {
		t.Fatalf("timeout is not node-scoped: %v", terr)
	}
	client.Close()
	if err := client.Close(); err != nil {
		t.Fatalf("second Close after timeout: %v", err)
	}
}

// TestDialRetryBackoff: a node that comes up late is reachable with
// retries, and a single attempt against a closed port fails fast.
func TestDialRetryBackoff(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	if _, err := Dial(Config{Nodes: []string{addr}, DialAttempts: 1}); err == nil {
		t.Fatal("single-attempt dial against closed port succeeded")
	}

	nodeErr := make(chan error, 1)
	go func() {
		time.Sleep(150 * time.Millisecond)
		l2, err := net.Listen("tcp", addr)
		if err != nil {
			nodeErr <- err
			return
		}
		defer l2.Close()
		nodeErr <- NewNode(NodeConfig{Shards: 1}).ListenAndServe(l2)
	}()
	client, err := Dial(Config{Nodes: []string{addr}, DialAttempts: 30, DialBackoff: 20 * time.Millisecond})
	if err != nil {
		t.Fatalf("retried dial failed: %v", err)
	}
	if _, err := client.Exec(`CREATE STREAM S(a, tagtime);`); err != nil {
		t.Fatal(err)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-nodeErr; err != nil {
		t.Fatalf("late node session: %v", err)
	}
}

// TestNodeSessionOutlivesFeedTimesOut: a node with IOTimeout whose feed
// vanishes silently (no Bye, no FIN — just silence) ends its session on
// the read deadline instead of leaking forever.
func TestNodeSessionOutlivesFeedTimesOut(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		defer l.Close()
		done <- NewNode(NodeConfig{Shards: 1, IOTimeout: 50 * time.Millisecond}).ListenAndServe(l)
	}()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc := newWireEnc()
	encodeHello(enc, 0)
	if _, err := conn.Write(appendFrame(nil, frameHello, enc.Buf)); err != nil {
		t.Fatal(err)
	}
	fr := frameReader{r: conn}
	if typ, _, err := fr.next(); err != nil || typ != frameHelloAck {
		t.Fatalf("hello ack: typ=%d err=%v", typ, err)
	}
	// Go silent. The session must end on its own within a few deadlines.
	select {
	case err := <-done:
		var ne net.Error
		if err == nil || !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("session ended with %v; want a timeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("node session outlived its silent feed (leak)")
	}
}

// TestCloseRaceUnderLoad: concurrent pushes against Close — the teardown
// ordering race the satellite names. Run under -race; pushes may fail with
// "client closed" but nothing may panic, deadlock, or corrupt.
func TestCloseRaceUnderLoad(t *testing.T) {
	fleet := startKillableNodes(t, 2, 1, 0)
	client, err := Dial(Config{Nodes: fleet.addrs, BatchSize: 2, CheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Exec(clusterDDL); err != nil {
		t.Fatal(err)
	}
	if err := client.Subscribe("C1", func(*stream.Tuple) {}); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	pusherDone := make(chan struct{})
	go func() {
		defer close(pusherDone)
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := client.Push("C1", ts(i), stream.Str("R0"), stream.Str("t"), stream.Time(ts(i))); err != nil {
				return // client closed under us: expected
			}
		}
	}()
	time.Sleep(20 * time.Millisecond)
	if err := client.Close(); err != nil {
		t.Fatalf("Close under load: %v", err)
	}
	close(stop)
	<-pusherDone
	if err := client.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	fleet.wait()
}
