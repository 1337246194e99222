package main

import (
	"encoding/json"
	"os"
	"strings"
	"time"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's side of the call. parent is the index of the span that caused
// it (-1 for roots); batch ties the spans of one input batch together.
type span struct {
	name       string
	start, end int64 // ns since tracer origin
	parent     int32
	batch      int32
	// cbNs is time the sink callback ran inside this span (engine.push and
	// engine.drain); rows is how many callbacks that was.
	cbNs int64
}

// tracer appends spans to a preallocated slice and writes them out when the
// run ends. A nil tracer records nothing, so untraced phases share the feed
// code at the cost of a nil check.
type tracer struct {
	origin time.Time
	spans  []span
	// afterPush, when set, runs after every engine.push span closes — off
	// the span's clock — to sample gauges that have no high-water counter.
	afterPush func()
}

func newTracer(capacity int) *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) begin(name string, parent int32, batch int) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.origin).Nanoseconds(),
		parent: parent, batch: int32(batch)})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].end = time.Since(t.origin).Nanoseconds()
}

// endPush closes an engine.push/engine.drain span and attaches the sink
// callback time that ran inside it, so self time can exclude the sink.
func (t *tracer) endPush(i int32, sk *sink) {
	if t == nil {
		return
	}
	t.spans[i].end = time.Since(t.origin).Nanoseconds()
	t.spans[i].cbNs = sk.takeCb()
	if t.afterPush != nil {
		t.afterPush()
	}
}

// record adds a completed span measured elsewhere (set-up steps, probes).
func (t *tracer) record(name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := start.Sub(t.origin).Nanoseconds()
	t.spans = append(t.spans, span{name: name, start: s, end: s + d.Nanoseconds(), parent: -1, batch: -1})
}

// total sums span durations by name, and the callback time inside them.
func (t *tracer) total(name string) (dur, cb int64, count int) {
	if t == nil {
		return 0, 0, 0
	}
	for i := range t.spans {
		if s := &t.spans[i]; s.name == name {
			dur += s.end - s.start
			cb += s.cbNs
			count++
		}
	}
	return
}

// write emits Chrome trace-event JSON (load in Perfetto or chrome://tracing).
// Each span is a complete event; a push span's callback time becomes one
// synthetic sink.row child covering the same share of its interval.
func (t *tracer) write(path string) error {
	type ev struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	tid := func(name string) int {
		if strings.HasPrefix(name, "probe.") {
			return 2
		}
		return 1
	}
	out := make([]ev, 0, len(t.spans))
	for i, s := range t.spans {
		e := ev{Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: tid(s.name), Args: map[string]any{"id": i, "parent": s.parent}}
		if s.batch >= 0 {
			e.Args["batch_id"] = s.batch
		}
		out = append(out, e)
		if s.cbNs > 0 {
			out = append(out, ev{Name: "sink.row", Ph: "X", Ts: float64(s.end-s.cbNs) / 1e3, Dur: float64(s.cbNs) / 1e3,
				Pid: 1, Tid: 1, Args: map[string]any{"parent": i, "batch_id": s.batch, "aggregated": true}})
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": out, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
