// Command eslev runs ESL-EV scripts over CSV-recorded RFID streams and
// ships demos of the paper's examples, including the §3.1.1 pairing-mode
// walkthrough with the exact joint tuple history from the text.
//
// Usage:
//
//	eslev demo modes                 reproduce the §3.1.1 walkthrough
//	eslev demo examples              run paper examples 1-8 on simulated data
//	eslev run [-shards N] [-stats] [-slack d] [-checkpoint-dir d]
//	          [-checkpoint-every N] [-restore] [-cpuprofile f] [-memprofile f]
//	          [-trace f] script.esl [s=f.csv]
//	                                 execute a script, feeding stream s
//	                                 from CSV file f (repeatable); -shards
//	                                 runs it on the partition-parallel engine;
//	                                 -slack enables the reorder boundary and
//	                                 feeds rows in recorded arrival order, so
//	                                 out-of-order feeds work and CONSISTENCY
//	                                 FAST/MIDDLE clauses speculate;
//	                                 -stats prints per-query routed/skipped
//	                                 counters, run gauges, and speculation
//	                                 pending/retracted counts afterwards;
//	                                 -checkpoint-dir journals every pushed
//	                                 item and cuts a durable snapshot when
//	                                 the run ends (plus every N records with
//	                                 -checkpoint-every); -restore recovers
//	                                 state from that directory first
//	eslev chaos [-events N] [-shards N] [-fanout N] [-slack d] [-disorder f] [-dup f]
//	            [-corrupt f] [-oversize f] [-late f] [-panic-every N] [-policy P]
//	            [-extended] [-kill-every N] [-checkpoint-every N] [-journal-dir d]
//	            [-consistency L] [-late-heavy]
//	                                 fault-injection soak: perturb a deterministic
//	                                 workload with disorder, duplicates, corruption
//	                                 and UDF panics, then verify output equivalence
//	                                 and exact dead-letter accounting; -fanout adds
//	                                 N selective queries and pits routed dispatch
//	                                 against a scan-all baseline; -kill-every
//	                                 crashes the perturbed engine every N offered
//	                                 readings and recovers it from the latest
//	                                 snapshot plus journal replay, certifying
//	                                 exactly-once output across crashes;
//	                                 -consistency MIDDLE|FAST runs the workload
//	                                 speculatively and proves the compensated
//	                                 (retraction-folded) stream equals the strict
//	                                 baseline row for row; -late-heavy swaps in
//	                                 bursty reader-clustered near-horizon lateness
//
// CSV files carry a header row naming the stream's columns; a column named
// read_time/tagtime/ts holds the event time as a Go duration ("1.5s") or
// integer nanoseconds. Rows must be in non-decreasing time order unless
// -slack covers the recorded disorder. Flags precede the script: every
// argument after it is a stream=file.csv feed.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"sort"
	"strconv"
	"strings"
	"time"

	eslev "repro"
	"repro/internal/chaos"
	"repro/internal/spec"
	"repro/internal/stream"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "demo":
		if len(os.Args) < 3 {
			usage()
		}
		switch os.Args[2] {
		case "modes":
			err = demoModes(os.Stdout)
		case "examples":
			err = demoExamples()
		default:
			usage()
		}
	case "run":
		fs := flag.NewFlagSet("run", flag.ExitOnError)
		shards := fs.Int("shards", 1, "run on the partition-parallel engine with this many shards")
		stats := fs.Bool("stats", false, "print per-query stats (emitted, routed/skipped, runs, speculation gauges) after the run")
		slack := fs.Duration("slack", 0, "reorder slack for the ingest boundary; enables out-of-order feeds and CONSISTENCY FAST/MIDDLE queries")
		ckptDir := fs.String("checkpoint-dir", "", "journal directory: every pushed item is logged and a snapshot is cut when the run ends")
		ckptEvery := fs.Int("checkpoint-every", 0, "also cut an automatic snapshot every N journaled records (requires -checkpoint-dir)")
		restore := fs.Bool("restore", false, "recover state from -checkpoint-dir (snapshot + journal replay) before feeding")
		query := fs.String("query", "", "run this ad-hoc snapshot SELECT after the feed and print its rows")
		asOf := fs.String("as-of", "", `AS OF anchor for -query: "LSN 2000" or "30 SECONDS" reads the newest checkpointed table version at or before it`)
		prof := profileFlags(fs)
		_ = fs.Parse(os.Args[2:])
		if fs.NArg() < 1 {
			usage()
		}
		var stop func() error
		if stop, err = prof.start(); err == nil {
			err = runScript(os.Stdout, os.Stderr, runOpts{
				shards: *shards, stats: *stats, slack: *slack,
				ckptDir: *ckptDir, ckptEvery: *ckptEvery, restore: *restore,
				query: *query, asOf: *asOf,
			}, fs.Arg(0), fs.Args()[1:])
			if serr := stop(); err == nil {
				err = serr
			}
		}
	case "chaos":
		fs := flag.NewFlagSet("chaos", flag.ExitOnError)
		events := fs.Int("events", 1_000_000, "clean readings to generate")
		seed := fs.Int64("seed", 1, "PRNG seed; equal seeds replay identically")
		slack := fs.Duration("slack", 500*time.Millisecond, "reorder slack; disorder stays within it")
		disorder := fs.Float64("disorder", 0.25, "fraction of readings arriving out of order")
		dup := fs.Float64("dup", 0.01, "fraction of readings duplicated exactly")
		corrupt := fs.Float64("corrupt", 0.001, "fraction of readings shadowed by malformed rows")
		oversize := fs.Float64("oversize", 0.0005, "fraction of readings shadowed by oversized rows")
		late := fs.Float64("late", 0.001, "fraction of readings shadowed by late tuples")
		panicEvery := fs.Int("panic-every", 10_000, "inject a UDF panic every N readings (0 = off)")
		policy := fs.String("policy", "DEAD_LETTER", "lateness policy: ERROR, DROP, or DEAD_LETTER")
		shards := fs.Int("shards", 1, "run the perturbed engine with this many shards (1 = serial)")
		fanout := fs.Int("fanout", 0, "register this many extra selective queries; routed dispatch is checked against a scan-all baseline")
		extended := fs.Bool("extended", false, "register the recovery workload variants (all pairing modes, star, EXCEPTION_SEQ timers, transducer chain)")
		killEvery := fs.Int("kill-every", 0, "crash/recovery mode: kill and recover the perturbed engine every N offered readings (disables -panic-every)")
		killCkpt := fs.Int("checkpoint-every", 0, "durable checkpoint cadence for -kill-every, in offered readings (0 = kill-every/2+1)")
		journalDir := fs.String("journal-dir", "", "journal directory for -kill-every (default: a temp dir, removed afterwards)")
		consistency := fs.String("consistency", "STRICT", "register base-stream queries at this consistency level (STRICT, MIDDLE, or FAST); the fold check proves retractions compensate exactly")
		lateHeavy := fs.Bool("late-heavy", false, "replace uniform disorder with bursty reader-clustered lateness near the slack bound")
		_ = fs.Parse(os.Args[2:])
		level, ok := spec.ParseLevel(*consistency)
		if !ok {
			err = fmt.Errorf("chaos: unknown consistency level %q (want STRICT, MIDDLE, or FAST)", *consistency)
			break
		}
		cfg := chaos.Config{
			Events:          *events,
			Seed:            *seed,
			Slack:           *slack,
			Disorder:        *disorder,
			Duplicate:       *dup,
			Corrupt:         *corrupt,
			Oversize:        *oversize,
			Late:            *late,
			PanicEvery:      *panicEvery,
			Shards:          *shards,
			BatchSize:       512,
			Fanout:          *fanout,
			Extended:        *extended,
			KillEvery:       *killEvery,
			CheckpointEvery: *killCkpt,
			JournalDir:      *journalDir,
			Speculation:     level,
			LateHeavy:       *lateHeavy,
		}
		if cfg.KillEvery > 0 {
			cfg.PanicEvery = 0 // the sacrificial probe is per-engine state
		}
		err = runChaos(cfg, *policy)
	case "node":
		err = cmdNode(os.Args[2:])
	case "feed":
		err = cmdFeed(os.Args[2:])
	case "cluster-soak":
		fs := flag.NewFlagSet("cluster-soak", flag.ExitOnError)
		nodes := fs.String("nodes", "1,4", "comma-separated cluster sizes to certify")
		events := fs.Int("events", 20_000, "randomized events per run")
		seed := fs.Int64("seed", 1, "PRNG seed; equal seeds replay identically")
		shards := fs.Int("shards", 1, "node-local worker shard count")
		batch := fs.Int("batch", 0, "feed flush threshold (0 = default)")
		killEvery := fs.Int("kill-every", 0, "kill-a-node chaos: crash the next -kill-nodes victim after every N feed events (0 = off)")
		killNodes := fs.String("kill-nodes", "0", "comma-separated node indices to crash, in order, for -kill-every")
		ckptEvery := fs.Int("checkpoint-every", 0, "per-origin checkpoint cadence in accepted batches (0 = 8 when killing, else off)")
		_ = fs.Parse(os.Args[2:])
		var plan soakKillPlan
		if plan, err = parseSoakKillPlan(*killEvery, *killNodes, *ckptEvery); err == nil {
			err = runClusterSoak(*nodes, *events, *seed, *shards, *batch, plan)
		}
	case "explain":
		if len(os.Args) < 3 {
			usage()
		}
		err = explainScript(os.Stdout, os.Args[2])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "eslev:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  eslev demo modes                 reproduce the paper's §3.1.1 walkthrough
  eslev demo examples              run the paper's examples on simulated data
  eslev run [-shards N] [-stats] [-slack d]
            [-checkpoint-dir d] [-checkpoint-every N] [-restore]
            [-query "SELECT ..."] [-as-of "LSN n" | -as-of "30 SECONDS"]
            [-cpuprofile f] [-memprofile f] [-trace f] script.esl [s=f.csv]
                                   execute a script over CSV streams (flags
                                   must precede the script); -stats prints
                                   per-query routed/skipped counters and the
                                   plan-merging report; -checkpoint-dir
                                   journals every pushed item and cuts durable
                                   snapshots; -restore first recovers state from
                                   that directory; -query runs an ad-hoc
                                   snapshot SELECT after the feed, optionally
                                   AS OF a checkpointed LSN or event time
  eslev node [-listen 127.0.0.1:0] [-shards N] [-credit B]
                                   host one engine node: announce the bound
                                   address as "LISTENING addr", serve one feed
                                   session, exit
  eslev feed -nodes a:p,b:p [-batch N] [-stats] script.esl [s=f.csv]
                                   run a script over a node set: registration
                                   ships to homed nodes, CSV tuples route by
                                   placement, merged rows print locally
  eslev cluster-soak [-nodes 1,4] [-events N] [-seed S] [-shards N]
              [-kill-every N] [-kill-nodes 0,2] [-checkpoint-every B]
                                   certify multi-process clusters against the
                                   serial engine row for row, plus the exact
                                   transport accounting identity; -kill-every
                                   crashes node children mid-feed and requires
                                   the same row-for-row match across fail-over
  eslev chaos [-events N] [-seed S] [-slack 500ms] [-disorder 0.25] [-dup 0.01]
              [-corrupt 0.001] [-oversize 0.0005] [-late 0.001] [-panic-every 10000]
              [-policy DEAD_LETTER] [-shards N] [-fanout N] [-extended]
              [-kill-every N] [-checkpoint-every N] [-journal-dir d]
                                   fault-injection soak: perturb a workload and
                                   verify output equivalence + dead-letter accounting;
                                   -kill-every crashes and recovers the engine every
                                   N readings and certifies exactly-once output
  eslev explain script.esl         show the plan of each query in a script`)
	os.Exit(2)
}

// runChaos executes one fault-injection scenario and prints the summary;
// a verification failure (equivalence or accounting) is a non-zero exit.
func runChaos(cfg chaos.Config, policy string) error {
	switch strings.ToUpper(policy) {
	case "ERROR":
		cfg.Policy = stream.LateError
	case "DROP":
		cfg.Policy = stream.LateDrop
	case "DEAD_LETTER":
		cfg.Policy = stream.LateDeadLetter
	default:
		return fmt.Errorf("unknown lateness policy %q (want ERROR, DROP, or DEAD_LETTER)", policy)
	}
	res, err := chaos.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Println(res)
	return nil
}

// ---- profiling hooks --------------------------------------------------------

type profiler struct {
	cpu, mem, trc *string
	cpuFile       *os.File
	trcFile       *os.File
}

// profileFlags registers the standard pprof/trace flags on a FlagSet.
func profileFlags(fs *flag.FlagSet) *profiler {
	p := &profiler{}
	p.cpu = fs.String("cpuprofile", "", "write a CPU profile to this file")
	p.mem = fs.String("memprofile", "", "write an allocation profile to this file on exit")
	p.trc = fs.String("trace", "", "write a runtime execution trace to this file")
	return p
}

// start begins CPU profiling and tracing if requested; the returned stop
// flushes them and writes the heap profile.
func (p *profiler) start() (func() error, error) {
	if *p.cpu != "" {
		f, err := os.Create(*p.cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		p.cpuFile = f
	}
	if *p.trc != "" {
		f, err := os.Create(*p.trc)
		if err != nil {
			return nil, err
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			return nil, err
		}
		p.trcFile = f
	}
	return p.stop, nil
}

func (p *profiler) stop() error {
	var first error
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		first = p.cpuFile.Close()
	}
	if p.trcFile != nil {
		trace.Stop()
		if err := p.trcFile.Close(); err != nil && first == nil {
			first = err
		}
	}
	if *p.mem != "" {
		f, err := os.Create(*p.mem)
		if err != nil {
			if first == nil {
				first = err
			}
			return first
		}
		runtime.GC() // materialize final live-set before the heap snapshot
		if err := pprof.WriteHeapProfile(f); err != nil && first == nil {
			first = err
		}
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// demoModes replays the paper's worked example — the joint tuple history
// [t1:C1, t2:C1, t3:C2, t4:C3, t5:C3, t6:C2, t7:C4] — through
// SEQ(C1, C2, C3, C4) under each Tuple Pairing Mode.
func demoModes(w io.Writer) error {
	history := []struct {
		at     int
		stream string
	}{
		{1, "C1"}, {2, "C1"}, {3, "C2"}, {4, "C3"}, {5, "C3"}, {6, "C2"}, {7, "C4"},
	}
	fmt.Fprintln(w, "joint tuple history: [t1:C1, t2:C1, t3:C2, t4:C3, t5:C3, t6:C2, t7:C4]")
	fmt.Fprintln(w, "operator: SEQ(C1, C2, C3, C4)")
	for _, mode := range []eslev.PairingMode{eslev.Unrestricted, eslev.Recent, eslev.Chronicle, eslev.Consecutive} {
		m, err := eslev.NewMatcher(eslev.PatternDef{
			Steps: []eslev.PatternStep{{Alias: "C1"}, {Alias: "C2"}, {Alias: "C3"}, {Alias: "C4"}},
			Mode:  mode,
		})
		if err != nil {
			return err
		}
		var events []string
		for _, h := range history {
			tu, err := tupleOn(h.stream, time.Duration(h.at)*time.Second)
			if err != nil {
				return err
			}
			ms, err := m.Push(tu, h.stream)
			if err != nil {
				return err
			}
			for _, match := range ms {
				var parts []string
				for _, g := range match.Groups {
					for _, t := range g {
						parts = append(parts, fmt.Sprintf("t%d:%s", time.Duration(t.TS)/time.Second, t.Schema.Name()))
					}
				}
				events = append(events, "("+strings.Join(parts, ", ")+")")
			}
		}
		fmt.Fprintf(w, "\nMODE %s:\n", mode)
		if len(events) == 0 {
			fmt.Fprintln(w, "  (no sequence returned)")
		}
		sort.Strings(events)
		for _, ev := range events {
			fmt.Fprintln(w, "  "+ev)
		}
	}
	return nil
}

var demoSchemas = map[string]*eslev.Schema{}

func tupleOn(streamName string, at time.Duration) (*eslev.Tuple, error) {
	s, ok := demoSchemas[streamName]
	if !ok {
		var err error
		s, err = eslev.NewSchema(streamName,
			eslev.Field{Name: "readerid"}, eslev.Field{Name: "tagid"}, eslev.Field{Name: "tagtime"})
		if err != nil {
			return nil, err
		}
		demoSchemas[streamName] = s
	}
	return eslev.NewTuple(s, eslev.TS(at), eslev.Str(streamName), eslev.Str("x"), eslev.Null)
}

// demoExamples runs the paper's example queries over simulated workloads,
// printing a short summary per example.
func demoExamples() error {
	fmt.Println("== Example 1: duplicate filtering ==")
	base := eslev.UniformReadings("readings", 300, 15, 2*time.Second, 1)
	noisy := eslev.NoiseModel{DupProb: 0.4, DupSpread: 700 * time.Millisecond}.Apply(base, 2)
	e := eslev.New()
	if _, err := e.Exec(`
		CREATE STREAM readings(reader_id, tag_id, read_time);
		CREATE STREAM cleaned_readings(reader_id, tag_id, read_time);
		INSERT INTO cleaned_readings
		SELECT * FROM readings AS r1
		WHERE NOT EXISTS
		  (SELECT * FROM TABLE( readings OVER (RANGE 1 SECONDS PRECEDING CURRENT)) AS r2
		   WHERE r2.reader_id = r1.reader_id AND r2.tag_id = r1.tag_id);`); err != nil {
		return err
	}
	kept := 0
	e.Subscribe("cleaned_readings", func(*eslev.Tuple) { kept++ })
	if err := noisy.Feed(e.PushTuple); err != nil {
		return err
	}
	fmt.Printf("  %d raw readings (%d clean + duplicates) -> %d after dedup\n\n", noisy.Len(), base.Len(), kept)

	fmt.Println("== Example 6/7: containment on the packing line ==")
	trace, truth := eslev.PackingLine(eslev.PackingConfig{Cases: 20, Seed: 4, LateCaseEvery: 5})
	e2 := eslev.New()
	if _, err := e2.Exec(`
		CREATE STREAM R1(readerid, tagid, tagtime);
		CREATE STREAM R2(readerid, tagid, tagtime);`); err != nil {
		return err
	}
	found := 0
	if _, err := e2.RegisterQuery("c", `
		SELECT FIRST(R1*).tagtime, COUNT(R1*), R2.tagid, R2.tagtime
		FROM R1, R2
		WHERE SEQ(R1*, R2) MODE CHRONICLE
		AND R2.tagtime - LAST(R1*).tagtime <= 5 SECONDS
		AND R1.tagtime - R1.previous.tagtime <= 1 SECONDS`,
		func(eslev.Row) { found++ }); err != nil {
		return err
	}
	if err := trace.Feed(e2.PushTuple); err != nil {
		return err
	}
	onTime := 0
	for _, c := range truth {
		if !c.LateCase && !c.Missed {
			onTime++
		}
	}
	fmt.Printf("  %d cases staged (%d on time) -> %d containments detected\n\n", len(truth), onTime, found)

	fmt.Println("== Example 5: clinic workflow violations ==")
	ctrace, ctruth := eslev.ClinicWorkflow(eslev.ClinicConfig{Tests: 15, WrongOrderEvery: 5, StallEvery: 4, Seed: 6})
	e3 := eslev.New()
	if _, err := e3.Exec(`
		CREATE STREAM A1(readerid, tagid, tagtime);
		CREATE STREAM A2(readerid, tagid, tagtime);
		CREATE STREAM A3(readerid, tagid, tagtime);`); err != nil {
		return err
	}
	alerts := 0
	if _, err := e3.RegisterQuery("w", `
		SELECT exception.level, exception.reason FROM A1, A2, A3
		WHERE EXCEPTION_SEQ(A1, A2, A3) OVER [1 HOURS FOLLOWING A1]`,
		func(eslev.Row) { alerts++ }); err != nil {
		return err
	}
	if err := ctrace.Feed(e3.PushTuple); err != nil {
		return err
	}
	if err := e3.Heartbeat(e3.Now().Add(2 * time.Hour)); err != nil {
		return err
	}
	bad := 0
	for _, tst := range ctruth {
		if tst.WrongOrder || tst.Stalled {
			bad++
		}
	}
	fmt.Printf("  %d tests (%d violating) -> %d alerts\n\n", len(ctruth), bad, alerts)

	fmt.Println("== Example 8: door security ==")
	dtrace, dtruth := eslev.DoorTraffic(eslev.DoorConfig{Events: 25, TheftEvery: 5, Seed: 8})
	e4 := eslev.New()
	if _, err := e4.Exec(`CREATE STREAM tag_readings(tagid, tagtype, tagtime);`); err != nil {
		return err
	}
	thefts := 0
	if _, err := e4.RegisterQuery("t", `
		SELECT item.tagid FROM tag_readings AS item
		WHERE item.tagtype = 'item' AND NOT EXISTS
		  (SELECT * FROM tag_readings AS person
		   OVER [1 MINUTES PRECEDING AND FOLLOWING item]
		   WHERE person.tagtype = 'person')`,
		func(eslev.Row) { thefts++ }); err != nil {
		return err
	}
	for _, tu := range dtrace.DoorTuples("tag_readings") {
		if err := e4.PushTuple("tag_readings", tu); err != nil {
			return err
		}
	}
	if err := e4.Heartbeat(e4.Now().Add(5 * time.Minute)); err != nil {
		return err
	}
	staged := 0
	for _, ev := range dtruth {
		if ev.Theft {
			staged++
		}
	}
	fmt.Printf("  %d passages (%d thefts staged) -> %d alerts\n", len(dtruth), staged, thefts)
	return nil
}

// explainScript applies a script statement by statement, writing the plan
// of each query before registering it.
func explainScript(w io.Writer, path string) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	e := eslev.New()
	for _, stmt := range eslev.SplitStatements(string(src)) {
		up := strings.ToUpper(strings.TrimSpace(stmt))
		if strings.HasPrefix(up, "SELECT") || strings.HasPrefix(up, "INSERT") {
			plan, err := e.Explain(stmt)
			if err != nil {
				return fmt.Errorf("explain %q: %v", firstLine(stmt), err)
			}
			fmt.Fprintf(w, "-- %s\n%s\n\n", firstLine(stmt), plan)
			// Also register it so later queries see derived streams.
			if _, err := e.Exec(stmt + ";"); err != nil {
				return err
			}
			continue
		}
		if _, err := e.Exec(stmt + ";"); err != nil {
			return err
		}
	}
	return nil
}

func firstLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 60 {
		s = s[:60] + "..."
	}
	return s
}

// engineLike is the surface runScript needs from either engine flavor; both
// eslev.Engine and eslev.ShardedEngine satisfy it.
type engineLike interface {
	Exec(script string) ([]*eslev.Query, error)
	Subscribe(name string, fn func(*eslev.Tuple)) error
	StreamSchema(name string) (*eslev.Schema, bool)
	Push(streamName string, ts eslev.Timestamp, vals ...eslev.Value) error
	CheckpointNow() error
	Recover(dir string) error
}

// runOpts are the `eslev run` flags.
type runOpts struct {
	shards    int
	stats     bool
	slack     time.Duration
	ckptDir   string
	ckptEvery int
	restore   bool
	query     string
	asOf      string
}

// runScript executes an .esl file, feeding the named streams from CSVs and
// printing every row produced by top-level SELECT statements. With a
// checkpoint directory, every pushed item is journaled and a durable
// snapshot is cut when the run ends; -restore recovers the previous run's
// state (snapshot + journal suffix) before any CSV row is fed. Rows and the
// merge report go to out; progress lines and -stats go to errOut.
func runScript(out, errOut io.Writer, o runOpts, path string, args []string) error {
	feeds, err := parseFeeds(args)
	if err != nil {
		return err
	}
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if o.restore && o.ckptDir == "" {
		return fmt.Errorf("-restore requires -checkpoint-dir")
	}
	if o.asOf != "" && o.query == "" {
		return fmt.Errorf("-as-of requires -query")
	}
	if o.query != "" && o.shards > 1 {
		return fmt.Errorf("-query needs the serial engine (tables live on one node)")
	}
	if o.ckptEvery > 0 && o.ckptDir == "" {
		return fmt.Errorf("-checkpoint-every requires -checkpoint-dir")
	}
	var opts []eslev.Option
	if o.slack > 0 {
		opts = append(opts, eslev.WithSlack(o.slack))
	}
	if o.ckptDir != "" {
		opts = append(opts, eslev.WithJournal(o.ckptDir))
		if o.ckptEvery > 0 {
			opts = append(opts, eslev.WithCheckpointEvery(o.ckptEvery))
		}
	}
	var e engineLike
	finish := func() error { return nil }
	if o.shards > 1 {
		se := eslev.NewSharded(o.shards, opts...)
		finish = se.Close
		e = se
	} else {
		e = eslev.New(opts...)
	}
	if _, err := e.Exec(string(src)); err != nil {
		return err
	}
	// Echo derived streams prefixed "out" so scripts have a place to send
	// results: INSERT INTO out_alerts SELECT ...
	for _, name := range []string{"out", "out_alerts", "out_events", "out_rows"} {
		_ = e.Subscribe(name, func(t *eslev.Tuple) { fmt.Fprintln(out, t) })
	}
	if o.restore {
		if err := e.Recover(o.ckptDir); err != nil {
			return fmt.Errorf("restore from %s: %w", o.ckptDir, err)
		}
		fmt.Fprintf(errOut, "eslev: restored state from %s\n", o.ckptDir)
	}
	rows, err := loadCSVs(e, feeds, o.slack > 0)
	if err != nil {
		return err
	}
	if o.ckptDir != "" {
		if err := e.CheckpointNow(); err != nil {
			return fmt.Errorf("final checkpoint: %w", err)
		}
		fmt.Fprintf(errOut, "eslev: checkpoint cut in %s\n", o.ckptDir)
	}
	if o.query != "" {
		en := e.(*eslev.Engine)
		rows, err := en.QueryAsOf(o.query, o.asOf)
		if err != nil {
			return err
		}
		for _, r := range rows {
			fmt.Fprintln(out, r)
		}
		fmt.Fprintf(errOut, "eslev: query returned %d rows\n", len(rows))
	}
	if o.stats {
		if se, ok := e.(*eslev.ShardedEngine); ok {
			if err := se.Drain(); err != nil { // settle worker state before reading it
				return err
			}
		}
		printQueryStats(errOut, e)
		if en, ok := e.(*eslev.Engine); ok {
			if rep := en.MergeReport(); rep != "" {
				fmt.Fprintln(out, "plan merging:")
				fmt.Fprint(out, rep)
			}
		}
	}
	if err := finish(); err != nil { // sharded: drain merged output first
		return err
	}
	fmt.Fprintf(errOut, "eslev: processed %d tuples from %d streams\n", rows, len(feeds))
	return nil
}

// printQueryStats renders per-query observability counters — emitted rows,
// routing-index deliveries and proven skips, retained state, and live
// partial-match runs. Sharded engines report the sum across replicas.
func printQueryStats(w io.Writer, e engineLike) {
	var stats []eslev.QueryStats
	switch x := e.(type) {
	case *eslev.Engine:
		stats = x.Stats()
	case *eslev.ShardedEngine:
		// Replicas register the same queries in the same order and Stats()
		// sorts deterministically, so position-wise summing is sound (and,
		// unlike keying by name, keeps unnamed queries apart).
		_ = x.ForEachReplica(func(r *eslev.Engine) error {
			rs := r.Stats()
			if stats == nil {
				stats = append(stats, rs...)
				return nil
			}
			for i := range rs {
				if i >= len(stats) {
					break
				}
				a := &stats[i]
				a.Emitted += rs[i].Emitted
				a.State += rs[i].State
				a.Routed += rs[i].Routed
				a.Skipped += rs[i].Skipped
				a.Runs += rs[i].Runs
				a.SpecPending += rs[i].SpecPending
				a.SpecRetracted += rs[i].SpecRetracted
				a.Quarantined = a.Quarantined || rs[i].Quarantined
			}
			return nil
		})
	}
	fmt.Fprintln(w, "eslev: per-query stats (routed+skipped = stream arrivals):")
	for _, st := range stats {
		name := st.Name
		if name == "" {
			name = "(unnamed)"
		}
		extra := ""
		if st.Consistency != eslev.Strict {
			extra = fmt.Sprintf("  consistency=%s pending=%d retracted=%d",
				st.Consistency, st.SpecPending, st.SpecRetracted)
		}
		if st.Quarantined {
			extra += "  QUARANTINED"
		}
		fmt.Fprintf(w, "  %-20s %-18s emitted=%-8d routed=%-8d skipped=%-8d state=%-6d runs=%d%s\n",
			name, st.Kind, st.Emitted, st.Routed, st.Skipped, st.State, st.Runs, extra)
	}
	if es, ok := e.(interface{ EngineStats() eslev.EngineStats }); ok {
		st := es.EngineStats()
		fmt.Fprintf(w, "eslev: engine gauges: watermark=%v reorder-heap=%d gate-pending=%d\n",
			time.Duration(st.Watermark), st.PendingReorder, st.GatePending)
		if st.SpecAsserted > 0 || st.SpecPending > 0 {
			fmt.Fprintf(w, "eslev: speculation: pending=%d asserted=%d confirmed=%d retracted=%d late-finals=%d clamped=%d\n",
				st.SpecPending, st.SpecAsserted, st.SpecConfirmed, st.SpecRetracted, st.SpecLateFinals, st.GateClamped)
		}
	}
}

type csvFeed struct {
	stream string
	file   string
}

// parseFeeds reads the stream=file.csv arguments that follow a script. The
// flag package stops at the script path, so a flag placed after it lands
// here; it is rejected by name rather than reported as a malformed feed.
func parseFeeds(args []string) ([]csvFeed, error) {
	var feeds []csvFeed
	for _, a := range args {
		if strings.HasPrefix(a, "-") {
			return nil, fmt.Errorf("%s after the script: flags must precede the script", a)
		}
		name, file, ok := strings.Cut(a, "=")
		if !ok || name == "" || file == "" {
			return nil, fmt.Errorf("feed %q must be stream=file.csv", a)
		}
		feeds = append(feeds, csvFeed{stream: name, file: file})
	}
	return feeds, nil
}

type csvRow struct {
	stream string
	at     eslev.Timestamp
	vals   []eslev.Value
}

// loadCSVs feeds the recorded rows. Without slack the strict engine needs
// one global time order, so rows from all files are merged by timestamp;
// with slack the recorded arrival order is the point (the boundary absorbs
// the disorder, and CONSISTENCY queries speculate over it), so rows feed in
// file order, files concatenated as given.
func loadCSVs(e engineLike, feeds []csvFeed, arrivalOrder bool) (int, error) {
	var all []csvRow
	for _, f := range feeds {
		rows, err := readCSV(e, f.stream, f.file)
		if err != nil {
			return 0, err
		}
		all = append(all, rows...)
	}
	if !arrivalOrder {
		sort.SliceStable(all, func(i, j int) bool { return all[i].at < all[j].at })
	}
	for _, r := range all {
		if err := e.Push(r.stream, r.at, r.vals...); err != nil {
			return 0, err
		}
	}
	return len(all), nil
}

func readCSV(e engineLike, streamName, file string) ([]csvRow, error) {
	schema, ok := e.StreamSchema(streamName)
	if !ok {
		return nil, fmt.Errorf("stream %s not declared by the script", streamName)
	}
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := csv.NewReader(f)
	header, err := r.Read()
	if err != nil {
		return nil, fmt.Errorf("%s: missing header: %v", file, err)
	}
	cols := make([]int, len(header))
	for i, h := range header {
		pos, ok := schema.Col(strings.TrimSpace(h))
		if !ok {
			return nil, fmt.Errorf("%s: column %q not in stream %s", file, h, streamName)
		}
		cols[i] = pos
	}
	tc := schema.TimeColumn()
	var out []csvRow
	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		vals := make([]eslev.Value, schema.Len())
		var at eslev.Timestamp
		for i, field := range rec {
			field = strings.TrimSpace(field)
			pos := cols[i]
			if pos == tc {
				ts, err := parseEventTime(field)
				if err != nil {
					return nil, fmt.Errorf("%s: bad time %q: %v", file, field, err)
				}
				at = ts
				vals[pos] = eslev.Time(ts)
				continue
			}
			vals[pos] = parseCSVValue(field)
		}
		out = append(out, csvRow{stream: streamName, at: at, vals: vals})
	}
	return out, nil
}

func parseEventTime(s string) (eslev.Timestamp, error) {
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return eslev.Timestamp(n), nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	return eslev.TS(d), nil
}

func parseCSVValue(s string) eslev.Value {
	if s == "" {
		return eslev.Null
	}
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return eslev.Int(n)
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return eslev.Float(f)
	}
	if s == "true" || s == "false" {
		return eslev.Bool(s == "true")
	}
	return eslev.Str(s)
}
