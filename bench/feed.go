package main

import (
	"runtime"
	"sort"
	"time"

	"repro/internal/snapshot"
)

const (
	maxBatch   = 256 // closed-loop batch: the engines' own flush threshold
	pacedBatch = 64  // open-loop batch: what a latency-minded feeder sends
)

// phaseResult is what one feed phase measured from outside the target.
type phaseResult struct {
	events    int
	wall      time.Duration // first decode to Drain return
	pushCalls int
	pushFails int
	firstErr  error
	allocB    uint64 // TotalAlloc delta
	mallocs   uint64
	gcPauseNs uint64
	gcCycles  uint32
	// paced only
	due      []int64   // per-batch scheduled instant, ns on the sink clock
	lagMs    []float64 // per-batch send time minus due time
	backlog  int       // events due but unsent when the schedule ended
	periodMs float64
}

// runMax is the closed-loop phase: one client decodes the next batch of the
// first events items and pushes it as soon as the previous push returns,
// then drains.
func runMax(in *input, tg target, sk *sink, events int, tr *tracer) phaseResult {
	dec := &decoder{data: in.data, resolve: snapshot.SchemaResolver(tg.StreamSchema)}
	res := phaseResult{events: events}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	root := tr.begin("phase.max", -1, -1)
	start := time.Now()
	for b, left := 0, events; left > 0; b, left = b+1, left-maxBatch {
		sp := tr.begin("feed.decode", root, b)
		items, err := dec.next(min(maxBatch, left))
		tr.end(sp)
		if err != nil {
			res.fail(err)
			break
		}
		sp = tr.begin("engine.push", root, b)
		err = tg.PushBatch(items)
		tr.endPush(sp, sk)
		res.pushCalls++
		if err != nil {
			res.fail(err)
		}
	}
	sp := tr.begin("engine.drain", root, -1)
	if err := tg.Drain(); err != nil {
		res.fail(err)
	}
	tr.endPush(sp, sk)
	res.wall = time.Since(start)
	tr.end(root)
	runtime.ReadMemStats(&m1)
	res.allocB = m1.TotalAlloc - m0.TotalAlloc
	res.mallocs = m1.Mallocs - m0.Mallocs
	res.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	res.gcCycles = m1.NumGC - m0.NumGC
	return res
}

func (r *phaseResult) fail(err error) {
	r.pushFails++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// runPaced is the open-loop phase: the feed in 64-event batches that fall
// due on a fixed wall-clock schedule at rate events/s, whether or not the
// target keeps up.
// A late batch is sent as soon as possible; its rows are still timed from
// when it was due.
func runPaced(in *input, tg target, sk *sink, rate float64, tr *tracer) phaseResult {
	events := in.n
	dec := &decoder{data: in.data, resolve: snapshot.SchemaResolver(tg.StreamSchema)}
	nb := (events + pacedBatch - 1) / pacedBatch
	period := time.Duration(float64(pacedBatch) / rate * float64(time.Second))
	res := phaseResult{events: events, due: make([]int64, nb), lagMs: make([]float64, 0, nb),
		periodMs: float64(period) / 1e6, backlog: -1}
	root := tr.begin("phase.paced", -1, -1)
	start := time.Now()
	sk.t0 = start
	// The schedule ends when the last batch falls due; whatever is still
	// unsent one period later is backlog.
	end := time.Duration(nb+1) * period
	for b := 0; b < nb; b++ {
		due := time.Duration(b+1) * period // a batch is due once its last event exists
		res.due[b] = int64(due)
		waitUntil(start, due)
		now := time.Since(start)
		if res.backlog < 0 && now >= end {
			res.backlog = events - b*pacedBatch
		}
		res.lagMs = append(res.lagMs, float64(now-due)/1e6)
		sp := tr.begin("feed.decode", root, b)
		items, err := dec.next(pacedBatch)
		tr.end(sp)
		if err != nil {
			res.fail(err)
			break
		}
		sp = tr.begin("engine.push", root, b)
		err = tg.PushBatch(items)
		tr.endPush(sp, sk)
		res.pushCalls++
		if err != nil {
			res.fail(err)
		}
	}
	if res.backlog < 0 {
		res.backlog = 0
	}
	sp := tr.begin("engine.drain", root, -1)
	if err := tg.Drain(); err != nil {
		res.fail(err)
	}
	tr.endPush(sp, sk)
	res.wall = time.Since(start)
	tr.end(root)
	return res
}

// waitUntil sleeps to just short of the instant and spins the rest, so send
// jitter stays well under a batch period without burning a CPU the sharded
// workers need.
func waitUntil(start time.Time, at time.Duration) {
	for {
		left := at - time.Since(start)
		if left <= 0 {
			return
		}
		if left > 300*time.Microsecond {
			time.Sleep(left - 200*time.Microsecond)
		} else {
			runtime.Gosched()
		}
	}
}

// percentile returns the p-quantile (0..1) of xs by nearest rank; xs is
// sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(p*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}
