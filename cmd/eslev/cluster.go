package main

// Cluster subcommands: `eslev node` hosts one engine node, `eslev feed`
// runs a script over a node set, and `eslev cluster-soak` certifies
// row-for-row equivalence between a multi-process cluster and the serial
// engine, optionally SIGKILLing nodes mid-feed. The soak spawns its node
// tier as real child processes of this binary, so the TCP data plane is
// exercised across process boundaries, not just goroutines.

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	eslev "repro"
	"repro/internal/cluster"
)

// ---- eslev node -------------------------------------------------------------

// cmdNode hosts one engine node: listen, announce the bound address on
// stdout (the spawn harness reads it), serve one feed session, exit.
func cmdNode(args []string) error {
	fs := flag.NewFlagSet("node", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:0", "address to listen on (port 0 = ephemeral)")
	shards := fs.Int("shards", 1, "node-local worker shard count")
	credit := fs.Int("credit", 0, "byte credit granted to the feed (0 = default)")
	prof := profileFlags(fs)
	_ = fs.Parse(args)
	stop, err := prof.start()
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	defer l.Close()
	fmt.Printf("LISTENING %s\n", l.Addr())
	serr := cluster.NewNode(cluster.NodeConfig{Shards: *shards, Credit: *credit}).ListenAndServe(l)
	if perr := stop(); serr == nil {
		serr = perr
	}
	return serr
}

// clusterEngine adapts a feed client to the engineLike surface runScript's
// CSV plumbing expects. Durability is a different layer; the methods exist
// only to satisfy the interface.
type clusterEngine struct{ c *cluster.Client }

func (a clusterEngine) Exec(script string) ([]*eslev.Query, error) { return a.c.Exec(script) }
func (a clusterEngine) Subscribe(name string, fn func(*eslev.Tuple)) error {
	return a.c.Subscribe(name, fn)
}
func (a clusterEngine) StreamSchema(name string) (*eslev.Schema, bool) {
	return a.c.StreamSchema(name)
}
func (a clusterEngine) Push(streamName string, ts eslev.Timestamp, vals ...eslev.Value) error {
	return a.c.Push(streamName, ts, vals...)
}
func (a clusterEngine) CheckpointNow() error {
	return errors.New("cluster feeds do not support checkpoints")
}
func (a clusterEngine) Recover(string) error {
	return errors.New("cluster feeds do not support recovery")
}

// ---- eslev feed -------------------------------------------------------------

// cmdFeed executes an .esl script over a running node set, feeding streams
// from CSVs exactly like `eslev run` and printing out_* derived tuples.
func cmdFeed(args []string) error {
	fs := flag.NewFlagSet("feed", flag.ExitOnError)
	nodeList := fs.String("nodes", "", "comma-separated node addresses (required)")
	batch := fs.Int("batch", 0, "pending-run length that triggers a flush (0 = default)")
	stats := fs.Bool("stats", false, "print placement and per-node transport accounting after the run")
	_ = fs.Parse(args)
	if *nodeList == "" || fs.NArg() < 1 {
		return errors.New("usage: eslev feed -nodes host:port,host:port script.esl [stream=file.csv ...]")
	}
	feeds, err := parseFeeds(fs.Args()[1:])
	if err != nil {
		return err
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	client, err := cluster.Dial(cluster.Config{
		Nodes:     strings.Split(*nodeList, ","),
		BatchSize: *batch,
	})
	if err != nil {
		return err
	}
	defer client.Close()
	e := clusterEngine{c: client}
	if _, err := e.Exec(string(src)); err != nil {
		return err
	}
	for _, name := range []string{"out", "out_alerts", "out_events", "out_rows"} {
		_ = e.Subscribe(name, func(t *eslev.Tuple) { fmt.Println(t) })
	}
	rows, err := loadCSVs(e, feeds, false)
	if err != nil {
		return err
	}
	if err := client.Drain(); err != nil {
		return err
	}
	if *stats {
		printClusterStats(client)
	}
	fmt.Fprintf(os.Stderr, "eslev: processed %d tuples from %d streams across %d nodes\n",
		rows, len(feeds), len(strings.Split(*nodeList, ",")))
	return nil
}

// printClusterStats renders the sealed placement and per-node accounting.
func printClusterStats(c *cluster.Client) {
	if rep, err := c.Placement(); err == nil {
		fmt.Fprintln(os.Stderr, "eslev: placement:")
		streams := make([]string, 0, len(rep.Streams))
		for s := range rep.Streams {
			streams = append(streams, s)
		}
		sort.Strings(streams)
		for _, s := range streams {
			fmt.Fprintf(os.Stderr, "  stream %-16s %s\n", s, rep.Streams[s])
		}
		queries := make([]string, 0, len(rep.Queries))
		for q := range rep.Queries {
			queries = append(queries, q)
		}
		sort.Strings(queries)
		for _, q := range queries {
			home := "all nodes"
			if h := rep.Queries[q]; h >= 0 {
				home = fmt.Sprintf("node %d", h)
			}
			fmt.Fprintf(os.Stderr, "  query  %-16s %s\n", q, home)
		}
		if rep.ExactClock {
			fmt.Fprintln(os.Stderr, "  exact clock: node 0 observes every foreign tuple as a heartbeat")
		}
	}
	fmt.Fprintln(os.Stderr, "eslev: per-node transport accounting:")
	for i, ns := range c.Stats().Nodes {
		fmt.Fprintf(os.Stderr, "  node %d %-21s sent tuples=%-8d beats=%-6d  rows back=%-8d  node saw tuples=%d beats=%d rows=%d\n",
			i, ns.Addr, ns.TuplesSent, ns.BeatsSent, ns.RowsReceived,
			ns.Node.Tuples, ns.Node.Beats, ns.Node.Rows)
	}
}

// ---- node-process spawn harness ---------------------------------------------

// nodeProc is one spawned `eslev node` child.
type nodeProc struct {
	cmd    *exec.Cmd
	addr   string
	killed bool
}

// nodeFleet is a set of spawned node children the fail-over harness can
// crash one by one; stop tolerates the corpses it made.
type nodeFleet struct {
	procs []*nodeProc
}

// spawnFleet launches n node child processes of this binary, each
// announcing its bound address before the next is started.
func spawnFleet(n, shards int) (*nodeFleet, error) {
	f := &nodeFleet{procs: make([]*nodeProc, 0, n)}
	for i := 0; i < n; i++ {
		nodeArgs := []string{"node", "-listen", "127.0.0.1:0", "-shards", strconv.Itoa(shards)}
		if dir := os.Getenv("ESLEV_NODE_PROFILE"); dir != "" {
			nodeArgs = append(nodeArgs, "-cpuprofile",
				fmt.Sprintf("%s/node-%d-%d.prof", dir, os.Getpid(), i))
		}
		cmd := exec.Command(os.Args[0], nodeArgs...)
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			f.stop()
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			f.stop()
			return nil, err
		}
		sc := bufio.NewScanner(out)
		if !sc.Scan() {
			cmd.Process.Kill()
			cmd.Wait()
			f.stop()
			return nil, fmt.Errorf("node %d: no LISTENING line", i)
		}
		line := strings.TrimSpace(sc.Text())
		addr, ok := strings.CutPrefix(line, "LISTENING ")
		if !ok {
			cmd.Process.Kill()
			cmd.Wait()
			f.stop()
			return nil, fmt.Errorf("node %d: unexpected announcement %q", i, line)
		}
		go func() { // drain any further stdout so the child never blocks
			for sc.Scan() {
			}
		}()
		f.procs = append(f.procs, &nodeProc{cmd: cmd, addr: addr})
	}
	return f, nil
}

func (f *nodeFleet) addrs() []string {
	addrs := make([]string, len(f.procs))
	for i, p := range f.procs {
		addrs[i] = p.addr
	}
	return addrs
}

// kill crashes node i outright (SIGKILL — no shutdown handshake). The
// child's sockets close with the process; the feed discovers the death
// through its read/write deadlines and fails the node's origins over.
func (f *nodeFleet) kill(i int) error {
	p := f.procs[i]
	p.killed = true
	return p.cmd.Process.Kill()
}

// stop waits for clean exits (a node exits when its feed session ends) and
// kills stragglers. Nodes crashed via kill are reaped without complaint —
// their non-zero exit is the harness's own doing.
func (f *nodeFleet) stop() error {
	var firstErr error
	for _, p := range f.procs {
		done := make(chan error, 1)
		go func(c *exec.Cmd) { done <- c.Wait() }(p.cmd)
		select {
		case err := <-done:
			if err != nil && !p.killed && firstErr == nil {
				firstErr = fmt.Errorf("node %s: %w", p.addr, err)
			}
		case <-time.After(10 * time.Second):
			p.cmd.Process.Kill()
			<-done
			if firstErr == nil {
				firstErr = fmt.Errorf("node %s: did not exit after the session; killed", p.addr)
			}
		}
	}
	return firstErr
}

// ---- eslev cluster-soak -----------------------------------------------------

// soakSink collects output fingerprints; callbacks arrive serialized by the
// merge tier (cluster) or inline (serial), but lock anyway.
type soakSink struct {
	mu   sync.Mutex
	rows []string
}

func (s *soakSink) row(tag string) func(eslev.Row) {
	return func(r eslev.Row) {
		s.mu.Lock()
		s.rows = append(s.rows, fmt.Sprintf("%s|%v@%d%v", tag, r.Names, r.TS, r.Vals))
		s.mu.Unlock()
	}
}

func (s *soakSink) tup(tag string) func(*eslev.Tuple) {
	return func(t *eslev.Tuple) {
		s.mu.Lock()
		s.rows = append(s.rows, fmt.Sprintf("%s|%s@%d%v", tag, t.Schema.Name(), t.TS, t.Vals))
		s.mu.Unlock()
	}
}

func (s *soakSink) sorted() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := append([]string(nil), s.rows...)
	sort.Strings(out)
	return out
}

// soakEvent is one generated input event ("" stream = heartbeat).
type soakEvent struct {
	stream string
	reader string
	tag    string
	at     eslev.Timestamp
}

// soakWorkload generates the randomized soak feed: two SEQ input streams, a
// pool of readers and tags, occasional heartbeats.
func soakWorkload(events int, seed int64) []soakEvent {
	rng := rand.New(rand.NewSource(seed))
	out := make([]soakEvent, 0, events)
	at := eslev.TS(0)
	for i := 0; i < events; i++ {
		at += eslev.TS(time.Duration(rng.Intn(40)+1) * time.Millisecond)
		if rng.Intn(50) == 0 {
			out = append(out, soakEvent{at: at})
			continue
		}
		out = append(out, soakEvent{
			stream: []string{"C1", "C2"}[rng.Intn(2)],
			reader: fmt.Sprintf("R%d", rng.Intn(24)),
			tag:    fmt.Sprintf("t%d", rng.Intn(200)),
			at:     at,
		})
	}
	return out
}

// soakRegister installs the soak query mix on either runner flavor: 24
// reader-local SEQ queries (homable), one open keyed SEQ (registers on every
// node), and a C2 subscription.
func soakRegister(exec func(string) error, register func(name, sql string, onRow func(eslev.Row)) error,
	subscribe func(string, func(*eslev.Tuple)) error, sink *soakSink) error {
	if err := exec(`
		CREATE STREAM C1(readerid, tagid, tagtime);
		CREATE STREAM C2(readerid, tagid, tagtime);`); err != nil {
		return err
	}
	for i := 0; i < 24; i++ {
		rd := fmt.Sprintf("R%d", i)
		if err := register(fmt.Sprintf("local%d", i), fmt.Sprintf(`
			SELECT C1.tagid, C1.tagtime, C2.tagtime FROM C1, C2
			WHERE SEQ(C1, C2) AND C1.tagid=C2.tagid
			AND C1.readerid='%s' AND C2.readerid='%s'`, rd, rd), sink.row(rd)); err != nil {
			return err
		}
	}
	if err := register("open", `
		SELECT C1.tagid, C2.tagtime FROM C1, C2
		WHERE SEQ(C1, C2) AND C1.tagid=C2.tagid`, sink.row("open")); err != nil {
		return err
	}
	return subscribe("C2", sink.tup("c2"))
}

// soakKillPlan schedules crash injection for the cluster soak: victim k is
// killed after (k+1)*every feed events, with per-origin checkpoints every
// ckpt accepted batches so the feed can re-home the victim's origins.
// every==0 with ckpt>0 runs checkpoints without kills (overhead soak).
type soakKillPlan struct {
	every   int
	victims []int
	ckpt    int
}

func (p soakKillPlan) active() bool { return p.every > 0 && len(p.victims) > 0 }

// parseSoakKillPlan builds the plan from the cluster-soak flags. The ckpt
// cadence defaults to 8 batches when kills are requested: fail-over needs
// checkpoints, and 8 keeps the replay window a few thousand events.
func parseSoakKillPlan(killEvery int, killNodes string, ckptEvery int) (soakKillPlan, error) {
	plan := soakKillPlan{ckpt: ckptEvery}
	if killEvery <= 0 {
		return plan, nil
	}
	victims, err := parseKillList("-kill-nodes", killNodes)
	if err != nil {
		return plan, err
	}
	plan.every, plan.victims = killEvery, victims
	if plan.ckpt == 0 {
		plan.ckpt = 8
	}
	return plan, nil
}

// validate rejects schedules that cannot certify anything: a victim outside
// the smallest cluster, a repeated victim, a matrix that kills every node
// (no survivor to adopt the origins), or a kill past the end of the feed.
func (p soakKillPlan) validate(minNodes, events int) error {
	if !p.active() {
		return nil
	}
	seen := make(map[int]bool)
	for _, v := range p.victims {
		if v >= minNodes {
			return fmt.Errorf("kill victim %d out of range for a %d-node cluster", v, minNodes)
		}
		if seen[v] {
			return fmt.Errorf("kill victim %d listed twice", v)
		}
		seen[v] = true
	}
	if len(p.victims) >= minNodes {
		return fmt.Errorf("killing %d of %d nodes leaves no survivor", len(p.victims), minNodes)
	}
	if last := p.every * len(p.victims); last >= events {
		return fmt.Errorf("last kill at event %d is past the %d-event feed", last, events)
	}
	return nil
}

// parseKillList parses -kill-nodes: like parseIntList, but node 0 is a
// legal (and important) victim — it anchors the exact-clock placement.
func parseKillList(flagName, s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 0 {
			return nil, fmt.Errorf("bad %s entry %q", flagName, part)
		}
		out = append(out, v)
	}
	return out, nil
}

// runClusterSoak replays one seeded workload on the serial engine and on
// multi-process clusters of each requested size, comparing output multisets
// row for row and checking the transport accounting identity. Any
// divergence is a non-zero exit. An active kill plan crashes node children
// at its event milestones, so the comparison additionally certifies
// exactly-once re-emission across fail-over.
func runClusterSoak(nodeCounts string, events int, seed int64, shards, batch int, plan soakKillPlan) error {
	counts, err := parseIntList("-nodes", nodeCounts)
	if err != nil {
		return err
	}
	minNodes := counts[0]
	for _, n := range counts {
		if n < minNodes {
			minNodes = n
		}
	}
	if err := plan.validate(minNodes, events); err != nil {
		return err
	}
	feed := soakWorkload(events, seed)

	serial := &soakSink{}
	se := eslev.New()
	if err := soakRegister(
		func(s string) error { _, err := se.Exec(s); return err },
		func(name, sql string, onRow func(eslev.Row)) error {
			_, err := se.RegisterQuery(name, sql, onRow)
			return err
		},
		se.Subscribe, serial); err != nil {
		return err
	}
	for _, ev := range feed {
		if ev.stream == "" {
			err = se.Heartbeat(ev.at)
		} else {
			err = se.Push(ev.stream, ev.at, eslev.Str(ev.reader), eslev.Str(ev.tag), eslev.Time(ev.at))
		}
		if err != nil {
			return err
		}
	}
	if err := se.Drain(); err != nil {
		return err
	}
	want := serial.sorted()
	fmt.Printf("cluster-soak: events=%d seed=%d serial rows=%d\n", events, seed, len(want))

	for _, n := range counts {
		if err := soakOneCluster(n, shards, batch, feed, want, plan); err != nil {
			return fmt.Errorf("nodes=%d: %w", n, err)
		}
	}
	if plan.active() {
		fmt.Println("cluster-soak: PASS (row-for-row + accounting identity across kills)")
	} else {
		fmt.Println("cluster-soak: PASS (row-for-row + accounting identity)")
	}
	return nil
}

func soakOneCluster(n, shards, batch int, feed []soakEvent, want []string, plan soakKillPlan) error {
	fleet, err := spawnFleet(n, shards)
	if err != nil {
		return err
	}
	cfg := cluster.Config{Nodes: fleet.addrs(), BatchSize: batch}
	// failovers needs no lock: OnFailover fires on the feed goroutine, which
	// is this one — fail-over runs inside our own Push/Drain calls.
	failovers, restored := 0, 0
	if plan.ckpt > 0 {
		cfg.CheckpointEvery = plan.ckpt
		cfg.IOTimeout = 2 * time.Second
		cfg.OnFailover = func(ev cluster.FailoverEvent) {
			failovers++
			if ev.Restored {
				restored++
			}
			fmt.Printf("cluster-soak: nodes=%d fail-over origin %d: node %d -> node %d (ckpt lsn %d, %d batches replayed)\n",
				n, ev.Origin, ev.From, ev.To, ev.CheckpointLSN, ev.ReplayedBatches)
		}
	}
	client, err := cluster.Dial(cfg)
	if err != nil {
		fleet.stop()
		return err
	}
	sink := &soakSink{}
	if err := soakRegister(
		func(s string) error { _, err := client.Exec(s); return err },
		func(name, sql string, onRow func(eslev.Row)) error {
			_, err := client.RegisterQuery(name, sql, onRow)
			return err
		},
		client.Subscribe, sink); err != nil {
		client.Close()
		fleet.stop()
		return err
	}
	kills := 0
	for i, ev := range feed {
		// Halfway to each kill, force a drain barrier: the drain re-arms a
		// checkpoint at the drained LSN, so by kill time every origin has a
		// shipped snapshot and recovery goes through the restore path
		// instead of replaying from genesis.
		if plan.active() && kills < len(plan.victims) && i == plan.every*kills+plan.every/2 {
			if err := client.Drain(); err != nil {
				client.Close()
				fleet.stop()
				return fmt.Errorf("pre-kill drain: %w", err)
			}
		}
		if plan.active() && kills < len(plan.victims) && i == plan.every*(kills+1) {
			victim := plan.victims[kills]
			if err := fleet.kill(victim); err != nil {
				client.Close()
				fleet.stop()
				return fmt.Errorf("kill node %d: %w", victim, err)
			}
			kills++
		}
		if ev.stream == "" {
			err = client.Heartbeat(ev.at)
		} else {
			err = client.Push(ev.stream, ev.at, eslev.Str(ev.reader), eslev.Str(ev.tag), eslev.Time(ev.at))
		}
		if err != nil {
			client.Close()
			fleet.stop()
			return err
		}
	}
	if err := client.Drain(); err != nil {
		client.Close()
		fleet.stop()
		return err
	}
	var acct []string
	for i, ns := range client.Stats().Nodes {
		if ns.TuplesSent != ns.Node.Tuples || ns.BeatsSent != ns.Node.Beats || ns.RowsReceived != ns.Node.Rows {
			acct = append(acct, fmt.Sprintf(
				"node %d: sent tuples=%d beats=%d rows back=%d, node saw tuples=%d beats=%d rows=%d",
				i, ns.TuplesSent, ns.BeatsSent, ns.RowsReceived,
				ns.Node.Tuples, ns.Node.Beats, ns.Node.Rows))
		}
	}
	if err := client.Close(); err != nil {
		fleet.stop()
		return err
	}
	if err := fleet.stop(); err != nil {
		return err
	}
	got := sink.sorted()
	if len(got) != len(want) {
		return fmt.Errorf("row count diverged: cluster %d vs serial %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("row %d diverged:\n  cluster: %s\n  serial:  %s", i, got[i], want[i])
		}
	}
	if len(acct) > 0 {
		return fmt.Errorf("accounting identity violated:\n  %s", strings.Join(acct, "\n  "))
	}
	if kills > 0 && failovers < kills {
		return fmt.Errorf("killed %d nodes but observed only %d fail-overs", kills, failovers)
	}
	if kills > 0 && restored == 0 {
		return fmt.Errorf("%d fail-overs but none restored a checkpoint — every recovery replayed from genesis", failovers)
	}
	if kills > 0 {
		fmt.Printf("cluster-soak: nodes=%d rows=%d identical, accounting exact, %d kills -> %d fail-overs (%d restored)\n",
			n, len(got), kills, failovers, restored)
	} else {
		fmt.Printf("cluster-soak: nodes=%d rows=%d identical, accounting exact\n", n, len(got))
	}
	return nil
}

func parseIntList(flagName, s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad %s entry %q", flagName, part)
		}
		out = append(out, v)
	}
	return out, nil
}
