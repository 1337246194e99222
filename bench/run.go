package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// runConfig selects one workload run.
type runConfig struct {
	w       *workload
	seed    int64
	seconds int
	// scale multiplies the frozen event count: 1 for a measurement, a small
	// fraction in the tests and the selfcheck.
	scale float64
	trace bool
	// phase restricts the run to "max" or "paced" ("" = both).
	phase string
	// rounds, when not 0, overrides how many rounds an untraced run makes;
	// the tests make one.
	rounds int
	// fault makes the sink misbehave (-selfcheck).
	fault faultKind
	// scratch is where journals and traces go; inside the checkout.
	scratch string
	// traceOut, when set, receives the Chrome trace of a traced run.
	traceOut string
}

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// NA explains why a per-layer metric does not apply to this workload;
	// the value is then 0.
	NA string `json:"na,omitempty"`
}

// report is everything one run produced.
type report struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Events    int               `json:"events"`
	InputHash string            `json:"input_hash"`
	RowHash   string            `json:"row_hash"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Notes     []string          `json:"notes,omitempty"`
	Env       envInfo           `json:"env"`
	order     []string
}

// set records a measurement; its unit is the one metrics.go declares.
func (r *report) set(name string, v float64) { r.put(name, metric{Value: v, Unit: unitOf(name)}) }

// na marks a per-layer metric as not applicable to this workload, with why.
func (r *report) na(name, why string) { r.put(name, metric{Unit: unitOf(name), NA: why}) }

func (r *report) put(name string, m metric) {
	if _, dup := r.Metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = m
}

func (r *report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// fail records check failures; any makes the run incorrect.
func (r *report) fail(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.Failed += n
	r.note("FAIL: "+format, args...)
}

// rounds is how many times an untraced run alternates a max phase and a
// paced phase, each on a fresh target. The phases are sized to take
// seconds/(2*rounds) each at seed speed, so a run measures for about
// --seconds in all, half of it in each kind of phase.
const rounds = 5

// Set-up is repeated until it has been timed at least minSetupReps times and
// for at least setupShare of the run length in all (at most maxSetupReps
// times). The first eight or so repetitions in a process run up to half as
// long again as the rest (cold caches, a growing heap), and a serial engine
// with eight queries sets up in a third of a millisecond: the median of a
// handful is noise. A tenth of the run gives some thirty-five repetitions of
// the slowest set-ups (45 ms) and puts the median on the plateau.
const (
	minSetupReps = 3
	maxSetupReps = 301
	setupShare   = 0.1
)

// runWorkload generates the input, checks it has a reference, then measures:
// set-up several times, the max phase and the paced phase each on a fresh
// target, and recovery for durable workloads. Untraced, it fills the
// end-to-end metrics; traced, the per-layer ones.
func runWorkload(cfg runConfig) (*report, error) {
	w := cfg.w
	size := float64(cfg.seconds) / 10 * cfg.scale
	in, err := generate(w, cfg.seed, int(float64(w.events)*size))
	if err != nil {
		return nil, err
	}
	// The paced phase has a feed of its own: at a fraction of capacity the
	// max phase's would take several times the phase's share of the run.
	var pin *input
	if cfg.trace || cfg.phase != "max" {
		if pin, err = generate(w, cfg.seed, int(w.pacedRate*10/(2*rounds)*size)); err != nil {
			return nil, err
		}
	}
	rep := &report{Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Events: in.n,
		InputHash: fmt.Sprintf("%016x", in.hash()), Metrics: map[string]metric{}, Env: fingerprint()}
	run := &runner{cfg: cfg, in: in, pin: pin, rep: rep}
	defer run.cleanup()
	if cfg.trace {
		return rep, run.traced()
	}
	return rep, run.untraced()
}

// generate builds a workload input of about n events (at least two paced
// batches) and makes sure it has a reference.
func generate(w *workload, seed int64, n int) (*input, error) {
	if n < 2*pacedBatch {
		n = 2 * pacedBatch
	}
	in := w.gen(seed, n&^1)
	if in.expect == nil {
		var err error
		if in.expect, err = runReference(w, in); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// runner carries one run's state between phases.
type runner struct {
	cfg runConfig
	// in feeds the max phases (and everything a traced run derives from
	// them); pin, shorter, the paced phases.
	in, pin *input
	rep     *report
	dirs    []string
	ndir    int
}

// journalDir hands out a fresh directory per constructed durable target.
func (r *runner) journalDir() string {
	if !r.cfg.w.durable {
		return ""
	}
	r.ndir++
	d := filepath.Join(r.cfg.scratch, fmt.Sprintf("run-%d-%s-%d", os.Getpid(), r.cfg.w.name, r.ndir))
	r.dirs = append(r.dirs, d)
	return d
}

func (r *runner) cleanup() {
	for _, d := range r.dirs {
		os.RemoveAll(d)
	}
}

// sinkCap sizes the row log so it never grows inside a timed phase:
// speculative queries deliver assertions and retractions on top of the rows
// that survive.
func (r *runner) sinkCap(in *input) int {
	n := in.expectedRows()
	if r.cfg.w.durable {
		n += n / 2
	}
	return n + 1024
}

// build constructs a fresh target for one phase over in.
func (r *runner) build(in *input, batch int, timed bool) (*rig, *sink, error) {
	sk := newSink(r.sinkCap(in), timed)
	sk.fault = r.cfg.fault
	rg, err := buildRig(r.cfg.w.rigConfig(batch, r.journalDir()), in, sk)
	return rg, sk, err
}

// untraced measures the end-to-end metrics.
func (r *runner) untraced() error {
	rep, w := r.rep, r.cfg.w
	var setups []float64
	var total time.Duration
	budget := time.Duration(setupShare * float64(r.cfg.seconds) * float64(time.Second))
	for len(setups) < minSetupReps || (total < budget && len(setups) < maxSetupReps) {
		rg, _, err := r.build(r.in, maxBatch, false)
		if err != nil {
			return err
		}
		setups = append(setups, rg.setup.Seconds())
		total += rg.setup
		if err := rg.close(); err != nil {
			return err
		}
	}
	if err := r.warmUp(); err != nil {
		return err
	}

	// Everything before this point — generation, the reference run, the
	// set-up repetitions — is harness memory; peak RSS is the system under
	// test's, so the high-water mark restarts here.
	runtime.GC()
	debug.FreeOSMemory()
	hwmReset := resetPeakRSS()

	// The measured work is done in `rounds` alternations of a max phase and
	// a paced phase over the same feed, each on a fresh target, and every
	// phase metric is the median over the rounds of the figure one phase
	// gives. Machine noise on this kind of box holds for a few seconds at a
	// time: phases seconds apart rarely share a slow spell, so the median
	// round is steadier than one phase `rounds` times as long.
	var eps, alloc, p50s, p90s, lags []float64
	samples, backlog := 0, 0
	rounds := rounds
	if r.cfg.rounds > 0 {
		rounds = r.cfg.rounds
	}
	for round := 0; round < rounds; round++ {
		if r.cfg.phase != "paced" {
			rg, sk, err := r.build(r.in, maxBatch, false)
			if err != nil {
				return err
			}
			res := runMax(r.in, rg, sk, r.in.n, nil)
			v := r.checkPhase("max", r.in, rg, sk, res)
			rep.RowHash = fmt.Sprintf("%016x", v.rowHash)
			eps = append(eps, float64(res.events)/res.wall.Seconds())
			alloc = append(alloc, float64(res.allocB)/float64(res.events))
			if w.durable && round == 0 {
				if err := r.recovery(rg, nil); err != nil {
					return err
				}
			}
			if err := rg.close(); err != nil {
				return err
			}
			runtime.GC()
		}
		if r.cfg.phase != "max" {
			rg, sk, err := r.build(r.pin, pacedBatch, true)
			if err != nil {
				return err
			}
			res := runPaced(r.pin, rg, sk, w.pacedRate, nil)
			r.checkPhase("paced", r.pin, rg, sk, res)
			lat := sk.latencies(r.pin, res.due, pacedBatch)
			p50s = append(p50s, percentile(lat, 0.50))
			p90s = append(p90s, percentile(lat, 0.90))
			lags = append(lags, percentile(res.lagMs, 0.99)/res.periodMs)
			samples += len(lat)
			backlog += res.backlog
			if err := rg.close(); err != nil {
				return err
			}
			runtime.GC()
		}
	}
	if len(eps) > 0 {
		rep.set("events_per_s", median(eps))
		rep.set("alloc_bytes_per_event", median(alloc))
		rep.note("max: %d rounds of %d events, first decode to Drain return; events/s per round %.0f",
			rounds, r.in.n, eps)
	}
	if len(p50s) > 0 {
		rep.set("emit_latency_p50_ms", median(p50s))
		rep.set("emit_latency_p90_ms", median(p90s))
		rep.note("paced: %d rounds of %d events at %.0f events/s, %d latency samples in all; per round p50 %.3f ms, p90 %.3f ms, generator lag p99 %.2f batch periods; backlog at schedule end %d events",
			rounds, r.pin.n, w.pacedRate, samples, p50s, p90s, lags, backlog)
		if percentile(lags, 1) > 1 || backlog > 0 {
			rep.note("paced: LIMIT MISSED — the target did not keep up with the schedule in some round; the latency figures include queueing behind it")
		}
	}
	rep.set("setup_s", median(setups))
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	rep.set("peak_rss_mb", rss)
	if !hwmReset {
		rep.note("peak_rss_mb includes harness memory: /proc/self/clear_refs not writable")
	}
	rep.Correct = rep.Failed == 0
	return nil
}

// warmUp pushes the first sixth of the feed through a throwaway target so
// the timed phases start with a grown heap and warm code paths, as a
// long-running deployment would; a cold first pass measured 20% slower.
func (r *runner) warmUp() error {
	rg, sk, err := r.build(r.in, maxBatch, false)
	if err != nil {
		return err
	}
	res := runMax(r.in, rg, sk, r.in.n/6, nil)
	if res.firstErr != nil {
		rg.close()
		return fmt.Errorf("warm-up: %w", res.firstErr)
	}
	return rg.close()
}

// checkPhase verifies one phase's rows and counters and accounts them.
func (r *runner) checkPhase(phase string, in *input, rg *rig, sk *sink, res phaseResult) verdict {
	rep := r.rep
	v := sk.check(in, in.expect)
	rep.Attempted += v.expected + res.pushCalls
	rep.fail(res.pushFails, "%s: %d of %d push calls failed: %v", phase, res.pushFails, res.pushCalls, res.firstErr)
	rep.fail(v.missing+v.unexpected, "%s: %d rows missing, %d unexpected of %d expected", phase, v.missing, v.unexpected, v.expected)
	rep.fail(v.outOfOrder, "%s: %d rows delivered out of timestamp order", phase, v.outOfOrder)
	for _, qv := range v.perQuery {
		if qv.missing+qv.unexpected+qv.outOfOrder > 0 {
			rep.note("  %s: expected %d, missing %d, unexpected %d, out of order %d", qv.name, qv.expected, qv.missing, qv.unexpected, qv.outOfOrder)
		}
	}
	if rg.serial != nil {
		st := rg.serial.EngineStats()
		rep.fail(st.QuarantinedQueries, "%s: %d queries quarantined", phase, st.QuarantinedQueries)
		if r.cfg.w.durable {
			// Every offered tuple is accounted for exactly once.
			out := st.Emitted + st.DroppedLate + st.DroppedDup + st.DeadLettered + uint64(st.PendingReorder)
			if st.Ingested != out {
				rep.fail(1, "%s: ingest identity broken: ingested %d != %d accounted", phase, st.Ingested, out)
			}
			if st.Ingested != uint64(in.n) {
				rep.fail(1, "%s: ingested %d of %d items", phase, st.Ingested, in.n)
			}
		}
	}
	return v
}

// recovery measures Engine.Recover on a fresh engine against the journal
// directory the max phase left behind: newest periodic snapshot plus the
// journal suffix past it. The recovered engine must account for every item
// and hold the same tables.
func (r *runner) recovery(rg *rig, tr *tracer) error {
	rep := r.rep
	dir := r.dirs[len(r.dirs)-1]
	if err := rg.serial.CloseJournal(); err != nil {
		return err
	}
	sk := newSink(r.sinkCap(r.in), false)
	cfg := r.cfg.w.rigConfig(maxBatch, dir)
	fresh, err := buildRig(cfg, r.in, sk)
	if err != nil {
		return err
	}
	defer fresh.close()
	t0 := time.Now()
	if err := fresh.serial.Recover(""); err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	d := time.Since(t0)
	tr.record("snapshot.recover", t0, d)
	rep.set("snapshot.recover_ms", float64(d)/1e6)
	rep.Attempted++
	// The original was drained before it was closed; level the recovered
	// engine the same way (off the recovery clock) before comparing.
	if err := fresh.serial.Drain(); err != nil {
		return fmt.Errorf("recover: drain: %w", err)
	}
	a, b := rg.serial.EngineStats(), fresh.serial.EngineStats()
	if a.Ingested != b.Ingested || a.Emitted != b.Emitted || a.DeadLettered != b.DeadLettered || a.DroppedDup != b.DroppedDup {
		rep.fail(1, "recover: boundary counters differ: ran %+v, recovered %+v", a, b)
	}
	for _, name := range []string{"tag_info", "object_movement"} {
		ta, _ := rg.serial.Store().Get(name)
		tb, _ := fresh.serial.Store().Get(name)
		if ta.Len() != tb.Len() {
			rep.fail(1, "recover: table %s has %d rows, ran with %d", name, tb.Len(), ta.Len())
		}
	}
	return nil
}
