package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/esl"
	"repro/internal/shard"
	"repro/internal/snapshot"
	"repro/internal/stream"
)

// traced produces the per-layer metrics: an untraced max pass for the
// overhead baseline, a traced max pass for pipeline spans and public stats,
// a short traced paced pass for generator lag and speculation lead, then the
// isolated layer probes. End-to-end metrics are never taken from here.
func (r *runner) traced() error {
	rep, w, in := r.rep, r.cfg.w, r.in
	for _, d := range perLayer {
		rep.na(d.Name, "not measured")
	}
	n := float64(in.n)
	// The tuples, off the clock: the probes and the placement share need them.
	items, err := decodeAll(in)
	if err != nil {
		return err
	}

	if err := r.warmUp(); err != nil {
		return err
	}
	// Untraced baseline (and, for the parallel topologies, the serial
	// engine on the same bytes).
	base, err := r.plainMax(w)
	if err != nil {
		return err
	}
	var serialEPS float64
	if w.topo != topoSerial {
		sw := *w
		sw.topo = topoSerial
		sres, err := r.plainMax(&sw)
		if err != nil {
			return err
		}
		serialEPS = n / sres.wall.Seconds()
	}

	// Traced max pass.
	tr := newTracer(4*(in.n/maxBatch+in.n/pacedBatch) + 64)
	rg, sk, err := r.build(in, maxBatch, false)
	if err != nil {
		return err
	}
	sk.trace = true
	at := time.Now().Add(-rg.setup)
	for _, step := range []struct {
		name string
		d    time.Duration
	}{{"setup.dial", rg.dial}, {"setup.ddl", rg.ddl}, {"setup.register", rg.register}, {"setup.preload", rg.preload}, {"setup.seal", rg.seal}} {
		if step.d > 0 {
			tr.record(step.name, at, step.d)
			at = at.Add(step.d)
		}
	}
	maxPendingReorder, maxSpecPending := 0, 0
	if rg.serial != nil && w.durable {
		tr.afterPush = func() {
			st := rg.serial.EngineStats()
			if st.PendingReorder > maxPendingReorder {
				maxPendingReorder = st.PendingReorder
			}
			if st.SpecPending > maxSpecPending {
				maxSpecPending = st.SpecPending
			}
		}
	}
	var wire0 [2]wireCounts
	for i, bn := range rg.nodes {
		wire0[i] = bn.meter().counts()
	}
	cpu0 := cpuSeconds()
	res := runMax(in, rg, sk, in.n, tr)
	cpu := cpuSeconds() - cpu0
	tr.afterPush = nil
	v := r.checkPhase("max", in, rg, sk, res)
	rep.RowHash = fmt.Sprintf("%016x", v.rowHash)

	decodeNs, _, _ := tr.total("feed.decode")
	pushNs, pushCb, _ := tr.total("engine.push")
	drainNs, drainCb, _ := tr.total("engine.drain")
	pushSelf := float64(pushNs - pushCb)
	rows := float64(v.delivered)

	rep.set("feed.decode_ns_per_event", float64(decodeNs)/n)
	rep.set("feed.bytes_per_event", float64(len(in.data))/n)
	rep.set("esl.push_ns_per_event", pushSelf/n)
	rep.set("esl.drain_ms", float64(drainNs-drainCb)/1e6)
	rep.set("esl.rows_out", rows)
	rep.set("esl.exec_ddl_ms", float64(rg.ddl)/1e6)
	rep.set("esl.register_us_per_query", float64(rg.register)/1e3/float64(len(in.queries)))
	if rows > 0 {
		rep.set("sink.row_cb_ns", float64(pushCb+drainCb)/rows)
	}
	rep.set("sink.out_of_order_rows", float64(v.outOfOrder))
	rep.set("proc.gc_pause_ms", float64(res.gcPauseNs)/1e6)
	rep.set("proc.gc_cycles", float64(res.gcCycles))
	rep.set("proc.mallocs_per_event", float64(res.mallocs)/n)
	rep.set("proc.cpu_s", cpu)
	rep.set("trace.overhead_frac", (res.wall.Seconds()-base.wall.Seconds())/base.wall.Seconds())
	rep.note("trace: untraced max %.3fs, traced %.3fs", base.wall.Seconds(), res.wall.Seconds())

	r.engineStats(rg, n)
	switch w.topo {
	case topoShard2:
		r.shardStats(rg, items, pushSelf, n, cpu, res.wall, n/base.wall.Seconds(), serialEPS)
	case topoCluster2:
		r.clusterStats(rg, wire0, pushSelf, n, rows, res.wall, n/base.wall.Seconds(), serialEPS)
	}
	if w.durable {
		if err := r.durableStats(rg, tr, maxPendingReorder, maxSpecPending); err != nil {
			return err
		}
	}
	deliveredRows := append([]rowRec(nil), sk.rows...)
	if err := rg.close(); err != nil {
		return err
	}
	runtime.GC()

	// Traced paced pass: the generator's lag and the speculative lead.
	prg, psk, err := r.build(r.pin, pacedBatch, true)
	if err != nil {
		return err
	}
	pres := runPaced(r.pin, prg, psk, w.pacedRate, tr)
	r.checkPhase("paced", r.pin, prg, psk, pres)
	// The 99th percentile is reported here only: it falls on the edge of a
	// slow mode on several workloads (see README) and cannot carry a bound.
	rep.set("sink.emit_latency_p99_ms", percentile(psk.latencies(r.pin, pres.due, pacedBatch), 0.99))
	rep.set("feed.gen_lag_p99_ms", percentile(pres.lagMs, 0.99))
	rep.set("feed.backlog_end_events", float64(pres.backlog))
	if w.durable {
		r.specLead(psk)
	}
	if err := prg.close(); err != nil {
		return err
	}
	runtime.GC()

	if err := r.probes(tr, items, deliveredRows, v, pushSelf); err != nil {
		return err
	}
	if r.cfg.traceOut != "" {
		if err := tr.write(r.cfg.traceOut); err != nil {
			return err
		}
		rep.note("trace: %d spans written to %s", len(tr.spans), r.cfg.traceOut)
	}
	rep.Correct = rep.Failed == 0
	return nil
}

// plainMax runs one untraced closed-loop pass of the given workload variant
// on the run's input and discards the rows.
func (r *runner) plainMax(w *workload) (phaseResult, error) {
	sk := newSink(r.sinkCap(r.in), false)
	rg, err := buildRig(w.rigConfig(maxBatch, r.journalDir()), r.in, sk)
	if err != nil {
		return phaseResult{}, err
	}
	res := runMax(r.in, rg, sk, r.in.n, nil)
	if res.firstErr != nil {
		rg.close()
		return res, fmt.Errorf("%s baseline pass: %w", w.name, res.firstErr)
	}
	err = rg.close()
	runtime.GC()
	return res, err
}

// engineStats reads what the engines publish about routing, merging, state
// and quarantine. The cluster's node engines live behind the wire; only the
// planning replica's placement is visible there.
func (r *runner) engineStats(rg *rig, n float64) {
	rep := r.rep
	var engines []*esl.Engine
	switch {
	case rg.serial != nil:
		engines = []*esl.Engine{rg.serial}
	case rg.sharded != nil:
		rg.sharded.ForEachReplica(func(e *esl.Engine) error {
			engines = append(engines, e)
			return nil
		})
	}
	if rg.client != nil {
		pl, err := rg.client.Placement()
		if err == nil {
			rep.set("esl.time_sensitive", b2f(pl.ExactClock))
		}
		for _, name := range []string{"esl.routed_per_event", "esl.skipped_delivery_frac", "esl.merged_member_frac",
			"esl.quarantined_queries", "core.runs_live_end", "core.state_tuples_end"} {
			rep.na(name, "node engines are behind the wire")
		}
		return
	}
	var routed, skipped uint64
	runs, state, quarantined, merged := 0, 0, 0, 0
	for _, e := range engines {
		st := e.EngineStats()
		routed += st.RoutedDeliveries
		skipped += st.SkippedDeliveries
		quarantined += st.QuarantinedQueries
		for _, qs := range e.Stats() {
			runs += qs.Runs
			state += qs.State
		}
	}
	// "group 3 [prefix tier] 512 member(s): ..." — one line per group.
	for _, line := range strings.Split(engines[0].MergeReport(), "\n") {
		var id, k int
		var tier string
		if _, err := fmt.Sscanf(line, "group %d [%s tier] %d member(s)", &id, &tier, &k); err == nil {
			if k > 1 {
				merged += k
			}
		}
	}
	rep.set("esl.time_sensitive", b2f(engines[0].TimeSensitive()))
	rep.set("esl.routed_per_event", float64(routed)/n)
	if routed+skipped > 0 {
		rep.set("esl.skipped_delivery_frac", float64(skipped)/float64(routed+skipped))
	}
	rep.set("esl.merged_member_frac", float64(merged)/float64(len(r.in.queries)))
	rep.set("esl.quarantined_queries", float64(quarantined))
	rep.set("core.runs_live_end", float64(runs))
	rep.set("core.state_tuples_end", float64(state))
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// shardStats covers the in-process partitioning layer.
func (r *runner) shardStats(rg *rig, items []stream.Item, pushSelf, n, cpu float64, wall time.Duration, eps, serialEPS float64) {
	rep := r.rep
	rep.set("shard.push_ns_per_event", pushSelf/n)
	var per []float64
	var rep0 *esl.Engine
	rg.sharded.ForEachReplica(func(e *esl.Engine) error {
		if rep0 == nil {
			rep0 = e
		}
		per = append(per, float64(e.EngineStats().RoutedDeliveries))
		return nil
	})
	rep.set("shard.skew", skew(per))
	// Share of the feed on streams the placement pins to shard 0.
	pl := shard.ComputePlacement(rep0, nil)
	pinned := 0
	for _, it := range items {
		if rt, ok := pl.Routes[strings.ToLower(it.Tuple.Schema.Name())]; !ok || rt.Mode == shard.RoutePinned {
			pinned++
		}
	}
	rep.set("shard.pinned_frac", float64(pinned)/n)
	rep.set("shard.cpu_util", cpu/(wall.Seconds()*float64(runtime.GOMAXPROCS(0))))
	rep.set("shard.speedup_vs_serial", eps/serialEPS)
	rep.note("shard: %.0f events/s against %.0f serial on the same bytes", eps, serialEPS)
}

// skew is the busiest partition's load over the mean.
func skew(per []float64) float64 {
	if len(per) == 0 {
		return 0
	}
	sum, hi := 0.0, 0.0
	for _, x := range per {
		sum += x
		if x > hi {
			hi = x
		}
	}
	if sum == 0 {
		return 0
	}
	return hi / (sum / float64(len(per)))
}

// wireCounts is one node connection's meter reading.
type wireCounts struct{ in, out, readWait, writeNs int64 }

func (c *meterConn) counts() wireCounts {
	return wireCounts{c.bytesIn.Load(), c.bytesOut.Load(), c.readWait.Load(), c.writeNs.Load()}
}

// clusterStats covers the wire: volume and node-side blocking from the
// bench-owned connections, placement skew and fail-overs from ClusterStats.
func (r *runner) clusterStats(rg *rig, before [2]wireCounts, pushSelf, n, rows float64, wall time.Duration, eps, serialEPS float64) {
	rep := r.rep
	rep.set("cluster.push_ns_per_event", pushSelf/n)
	var in, out, readWait, writeNs int64
	for i, bn := range rg.nodes {
		c := bn.meter().counts()
		in += c.in - before[i].in
		out += c.out - before[i].out
		readWait += c.readWait - before[i].readWait
		writeNs += c.writeNs - before[i].writeNs
	}
	span := float64(wall.Nanoseconds()) * float64(len(rg.nodes))
	rep.set("cluster.wire_bytes_out_per_event", float64(in)/n)
	if rows > 0 {
		rep.set("cluster.wire_bytes_in_per_row", float64(out)/rows)
	}
	rep.set("cluster.node_read_wait_frac", float64(readWait)/span)
	rep.set("cluster.node_write_wait_frac", float64(writeNs)/span)
	st := rg.client.Stats()
	var per []float64
	for _, ns := range st.Nodes {
		per = append(per, float64(ns.TuplesSent))
		if ns.TuplesSent != ns.Node.Tuples || ns.RowsReceived != ns.Node.Rows {
			rep.fail(1, "cluster: %s sent %d tuples, node counted %d; received %d rows, node shipped %d",
				ns.Addr, ns.TuplesSent, ns.Node.Tuples, ns.RowsReceived, ns.Node.Rows)
		}
	}
	rep.set("cluster.skew", skew(per))
	rep.set("cluster.failovers", float64(st.Failovers))
	rep.fail(st.Failovers, "cluster: %d fail-overs on a healthy loopback", st.Failovers)
	rep.set("cluster.dial_seal_ms", float64(rg.dial+rg.seal)/1e6)
	rep.set("cluster.speedup_vs_serial", eps/serialEPS)
	rep.note("cluster: %.0f events/s against %.0f serial on the same bytes", eps, serialEPS)
}

// durableStats covers what only the journaled, speculating workload has:
// boundary counters, table sizes, checkpoint, recovery and restore.
func (r *runner) durableStats(rg *rig, tr *tracer, maxPendingReorder, maxSpecPending int) error {
	rep := r.rep
	e := rg.serial
	st := e.EngineStats()
	rep.set("stream.ingest_reordered", float64(st.Reordered))
	rep.set("stream.ingest_dropped_dup", float64(st.DroppedDup))
	rep.set("stream.ingest_dead_lettered", float64(st.DeadLettered))
	rep.set("stream.ingest_max_pending", float64(maxPendingReorder))
	if ss, ok := e.SpecStats(rg.queries[dirtySeqFast]); ok {
		rep.set("spec.asserted", float64(ss.Asserted))
		rep.set("spec.confirmed", float64(ss.Confirmed))
		rep.set("spec.retracted", float64(ss.Retracted))
		rep.set("spec.late_finals", float64(ss.LateFinals))
		rep.set("spec.pending_max", float64(maxSpecPending))
		if ss.Asserted != ss.Confirmed+ss.Retracted+uint64(ss.Pending) {
			rep.fail(1, "spec: asserted %d != confirmed %d + retracted %d + pending %d", ss.Asserted, ss.Confirmed, ss.Retracted, ss.Pending)
		}
	} else {
		rep.fail(1, "spec: %s is not registered speculative", r.in.queries[dirtySeqFast].name)
	}

	// Recovery first, against what the run left behind (newest periodic
	// snapshot plus journal suffix); then an explicit checkpoint and a
	// restore of that snapshot alone.
	dir := r.dirs[len(r.dirs)-1]
	_, snapLSN, _, err := snapshot.LatestSnapshot(dir)
	if err != nil {
		return err
	}
	replayed := float64(e.LastLSN() - snapLSN)
	if err := r.recovery(rg, tr); err != nil {
		return err
	}
	mv, _ := e.Store().Get("object_movement")
	rep.set("db.rows_end", float64(mv.Len()))
	t0 := time.Now()
	if err := e.CheckpointNow(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	d := time.Since(t0)
	tr.record("snapshot.checkpoint", t0, d)
	rep.set("snapshot.checkpoint_ms", float64(d)/1e6)
	rep.set("db.versions_live", float64(len(mv.Versions())))
	path, _, ok, err := snapshot.LatestSnapshot(dir)
	if err != nil || !ok {
		return fmt.Errorf("checkpoint left no snapshot: %v", err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	rep.set("snapshot.checkpoint_bytes", float64(fi.Size()))

	fresh, err := buildRig(r.cfg.w.rigConfig(maxBatch, r.journalDir()), r.in, newSink(16, false))
	if err != nil {
		return err
	}
	defer fresh.close()
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	t0 = time.Now()
	if err := fresh.serial.Restore(f); err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	restore := time.Since(t0)
	tr.record("snapshot.restore", t0, restore)
	rep.set("snapshot.restore_ms", float64(restore)/1e6)
	if replayed > 0 {
		recoverNs := rep.Metrics["snapshot.recover_ms"].Value * 1e6
		rep.set("snapshot.replay_ns_per_event", (recoverNs-float64(restore.Nanoseconds()))/replayed)
		rep.note("recover: snapshot at lsn %d, %.0f journal records replayed", snapLSN, replayed)
	}
	return nil
}

// specLead pairs each speculative assertion with the strict twin's final
// for the same row and reports how much sooner the answer was out.
func (r *runner) specLead(sk *sink) {
	strict := map[uint64][]int64{}
	fast := -1
	for qi, q := range r.in.queries {
		if q.name == "seq_fast" {
			fast = qi
		}
	}
	for _, rec := range sk.rows {
		if int(rec.q) == fast-1 {
			strict[rec.hash] = append(strict[rec.hash], rec.wall)
		}
	}
	var lead []float64
	for _, rec := range sk.rows {
		if int(rec.q) != fast || rec.pol != 1 {
			continue
		}
		if ws := strict[rec.hash]; len(ws) > 0 {
			lead = append(lead, float64(ws[0]-rec.wall)/1e6)
			strict[rec.hash] = ws[1:]
		}
	}
	if len(lead) == 0 {
		r.rep.na("spec.first_answer_lead_ms", "no assertion matched a strict final")
		return
	}
	sort.Float64s(lead)
	r.rep.set("spec.first_answer_lead_ms", lead[len(lead)/2])
	r.rep.note("spec: median lead over %d assertion/final pairs", len(lead))
}

// probes runs the isolated layer probes and derives self time and the
// attribution residual from them.
func (r *runner) probes(tr *tracer, items []stream.Item, delivered []rowRec, v verdict, pushSelf float64) error {
	rep, w, in := r.rep, r.cfg.w, r.in
	n := float64(in.n)
	tuples := coreInput(items, in.probe.slack)
	var inPush time.Duration // probe time of layers that run inside Engine.PushBatch
	timed := func(name string, d time.Duration, inside bool) {
		tr.record("probe."+name, time.Now().Add(-d), d)
		if inside {
			inPush += d
		}
	}
	serialPath := w.topo == topoSerial

	// How this workload's engine drives its matchers.
	d := drive{every: maxBatch}
	switch {
	case strings.HasPrefix(w.name, "core_"):
		d.exact = true
	case w.durable:
		d.every = 1 // the boundary releases a tuple or two per offer
	}
	md, counts, err := probeMatchers(w, tuples, d)
	if err != nil {
		return err
	}
	timed("core.matcher", md, serialPath)
	rep.set("core.matcher_ns_per_event", float64(md.Nanoseconds())/n)
	matches := 0
	for q, c := range counts {
		matches += c
		want := -1
		for _, qv := range v.perQuery {
			if qv.name == q {
				want = qv.expected
			}
		}
		if q == "shared-prefix group" {
			want = 0
			for _, qv := range v.perQuery[:fanoutShared] {
				want += qv.expected
			}
		}
		rep.Attempted++
		if c != want {
			rep.fail(1, "probe: core.Matcher for %s found %d matches, the query delivered %d rows", q, c, want)
		}
	}
	rep.set("core.matches", float64(matches))

	if strings.HasPrefix(w.name, "core_") {
		xd, nx, err := probeException(tuples)
		if err != nil {
			return err
		}
		timed("core.exception", xd, serialPath)
		rep.set("core.exception_ns_per_event", float64(xd.Nanoseconds())/n)
		rep.set("core.exceptions", float64(nx))
		rep.Attempted++
		for _, qv := range v.perQuery {
			if qv.name == "ex5_clinic" && qv.expected != nx {
				rep.fail(1, "probe: core.ExceptionMatcher raised %d exceptions, ex5_clinic delivered %d rows", nx, qv.expected)
			}
		}
	} else {
		rep.na("core.exception_ns_per_event", "no EXCEPTION_SEQ query")
		rep.na("core.exceptions", "no EXCEPTION_SEQ query")
	}

	wd := probeWindow(tuples, in.probe.spans)
	timed("window.buffer", wd, serialPath)
	rep.set("window.buffer_ns_per_event", float64(wd.Nanoseconds())/n)

	if in.probe.slack > 0 {
		id := probeIngest(items, in.probe.slack)
		timed("stream.ingest", id, true)
		rep.set("stream.ingest_ns_per_event", float64(id.Nanoseconds())/n)
		dir, err := r.scratchSub("journal-probe")
		if err != nil {
			return err
		}
		jd, bytes, err := probeJournal(items, dir)
		if err != nil {
			return err
		}
		timed("snapshot.journal", jd, true)
		rep.set("snapshot.journal_append_ns_per_event", float64(jd.Nanoseconds())/n)
		rep.set("snapshot.journal_bytes_per_event", float64(bytes)/n)
	} else {
		for _, name := range []string{"stream.ingest_ns_per_event", "stream.ingest_reordered", "stream.ingest_dropped_dup",
			"stream.ingest_dead_lettered", "stream.ingest_max_pending"} {
			rep.na(name, "no ingest boundary configured")
		}
		for _, name := range []string{"snapshot.journal_append_ns_per_event", "snapshot.journal_bytes_per_event", "snapshot.checkpoint_ms",
			"snapshot.checkpoint_bytes", "snapshot.restore_ms", "snapshot.recover_ms", "snapshot.replay_ns_per_event"} {
			rep.na(name, "no journal configured")
		}
		for _, name := range []string{"spec.asserted", "spec.confirmed", "spec.retracted", "spec.late_finals", "spec.pending_max",
			"spec.first_answer_lead_ms", "spec.fast_over_strict_ns_ratio"} {
			rep.na(name, "no speculative query")
		}
	}

	if in.probe.tableRows > 0 {
		p, err := probeDB(tuples, in.probe.tableRows, int(rep.Metrics["db.rows_end"].Value))
		if err != nil {
			return err
		}
		rep.set("db.probe_ns", p.probeNs)
		rep.set("db.probe_allocs", p.probeAllocs)
		rep.set("db.insert_ns", p.insertNs)
		// One probe per reading for the join, one per locator event for
		// the insert-if-absent, one insert per new movement row.
		dbTotal := time.Duration(p.probeNs*float64(p.probes) + p.probeNs*float64(len(tuples)-p.probes) +
			p.insertNs*rep.Metrics["db.rows_end"].Value)
		timed("db", dbTotal, true)
		if err := r.specRatio(); err != nil {
			return err
		}
	} else {
		for _, name := range []string{"db.probe_ns", "db.probe_allocs", "db.insert_ns", "db.rows_end", "db.versions_live"} {
			rep.na(name, "no table in this workload")
		}
	}

	if w.topo != topoSerial {
		fd, maxPending := probeFanIn(delivered)
		timed("stream.fanin", fd, false)
		if len(delivered) > 0 {
			rep.set("stream.fanin_ns_per_row", float64(fd.Nanoseconds())/float64(len(delivered)))
		}
		rep.set("stream.fanin_max_pending", float64(maxPending))
	} else {
		rep.na("stream.fanin_ns_per_row", "serial engine: no fan-in")
		rep.na("stream.fanin_max_pending", "serial engine: no fan-in")
	}
	switch w.topo {
	case topoSerial:
		for _, d := range perLayer {
			if strings.HasPrefix(d.Name, "shard.") || strings.HasPrefix(d.Name, "cluster.") {
				rep.na(d.Name, "serial engine")
			}
		}
	case topoShard2:
		for _, d := range perLayer {
			if strings.HasPrefix(d.Name, "cluster.") {
				rep.na(d.Name, "no cluster in this topology")
			}
		}
	case topoCluster2:
		for _, d := range perLayer {
			if strings.HasPrefix(d.Name, "shard.") {
				rep.na(d.Name, "nodes run one shard each")
			}
		}
	}

	// Self time: what Engine.PushBatch spent that no probed layer accounts
	// for — parsing-free here, so routing, expression evaluation, projection
	// and bookkeeping. Only meaningful where the push span is the engine
	// itself; on the parallel topologies it is the generator's blocking time.
	if serialPath {
		self := pushSelf - float64(inPush.Nanoseconds())
		clamped := self
		if clamped < 0 {
			clamped = 0
		}
		rep.set("esl.self_ns_per_event", clamped/n)
		rep.set("trace.attribution_residual_frac", (self-clamped)/pushSelf)
		r.largestShare(tr, pushSelf, clamped)
	} else {
		rep.na("esl.self_ns_per_event", "engine.push is generator-side blocking on this topology")
		rep.na("trace.attribution_residual_frac", "engine.push is generator-side blocking on this topology")
		rep.note("engine.push is the feed's blocking time here; the probes give the operator work behind it")
		r.largestShare(tr, 0, 0)
	}
	return nil
}

// largestShare states which layer holds the largest share of engine.push,
// from the probe spans and the self-time estimate.
func (r *runner) largestShare(tr *tracer, pushSelf, self float64) {
	type share struct {
		name string
		ns   float64
	}
	var shares []share
	if pushSelf > 0 {
		shares = append(shares, share{"esl (self)", self})
	}
	for _, s := range tr.spans {
		if strings.HasPrefix(s.name, "probe.") && s.name != "probe.stream.fanin" {
			shares = append(shares, share{strings.TrimPrefix(s.name, "probe."), float64(s.end - s.start)})
		}
	}
	if len(shares) == 0 {
		return
	}
	sort.Slice(shares, func(i, j int) bool { return shares[i].ns > shares[j].ns })
	total := pushSelf
	if total == 0 {
		for _, s := range shares {
			total += s.ns
		}
	}
	n := float64(r.in.n)
	var parts []string
	for _, s := range shares {
		parts = append(parts, fmt.Sprintf("%s %.0f ns/event (%.0f%%)", s.name, s.ns/n, 100*s.ns/total))
	}
	r.rep.note("engine.push by layer (probe estimate): %s — largest: %s", strings.Join(parts, ", "), shares[0].name)
}

// specRatio times two short sub-runs of the speculative workload with only
// the SEQ query registered, once STRICT and once FAST, on the same bytes.
func (r *runner) specRatio() error {
	sub := *r.in
	perEvent := func(q querySpec) (float64, error) {
		sub.queries = []querySpec{q}
		sk := newSink(r.sinkCap(r.in), false)
		rg, err := buildRig(r.cfg.w.rigConfig(maxBatch, r.journalDir()), &sub, sk)
		if err != nil {
			return 0, err
		}
		defer rg.close()
		res := runMax(&sub, rg, sk, sub.n, nil)
		if res.firstErr != nil {
			return 0, res.firstErr
		}
		return float64(res.wall.Nanoseconds()) / float64(sub.n), nil
	}
	strict, err := perEvent(r.in.queries[dirtySeqFast-1])
	if err != nil {
		return err
	}
	fast, err := perEvent(r.in.queries[dirtySeqFast])
	if err != nil {
		return err
	}
	r.rep.set("spec.fast_over_strict_ns_ratio", fast/strict)
	r.rep.note("spec: SEQ alone costs %.0f ns/event STRICT, %.0f FAST", strict, fast)
	return nil
}
