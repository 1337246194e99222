package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/snapshot"
	"repro/internal/stream"
	"repro/internal/window"
)

// The probes replay the workload's own decoded items through one lower
// layer's public entry point at a time, with nothing else running, so each
// layer gets a cost of its own. They are driven the way the engine drives
// that layer on this workload — per item with a clock advance after every
// arrival on the exact path, in runs with one advance per batch on the
// batched path — because that is where most of a matcher's time goes. An
// isolated probe is an estimate: caches are warmer and no other query
// interleaves, which trace.attribution_residual_frac makes visible.

// decodeAll turns the feed back into items once, off the clock, through
// generator-side schemas: the probes need tuples, not a target.
func decodeAll(in *input) ([]stream.Item, error) {
	schemas := map[string]*stream.Schema{}
	resolve := func(name string) (*stream.Schema, bool) {
		if s, ok := schemas[name]; ok {
			return s, true
		}
		fields := readingFields
		switch name {
		case "tag_readings":
			fields = []stream.Field{{Name: "tagid"}, {Name: "tagtype"}, {Name: "tagtime"}}
		case "readings":
			fields = []stream.Field{{Name: "reader_id"}, {Name: "tag_id"}, {Name: "read_time"}}
		case "tag_locations":
			fields = []stream.Field{{Name: "readerid"}, {Name: "tid"}, {Name: "tagtime"}, {Name: "loc"}}
		}
		s := stream.MustSchema(name, fields...)
		schemas[name] = s
		return s, true
	}
	dec := &decoder{data: in.data, resolve: resolve}
	items := make([]stream.Item, 0, in.n)
	for dec.off < len(dec.data) {
		batch, err := dec.next(maxBatch)
		if err != nil {
			return nil, err
		}
		items = append(items, batch...)
	}
	return items, nil
}

// coreInput is the tuple sequence the layers behind the ingest boundary
// see: the arrivals as they are when there is no boundary, otherwise what a
// boundary configured like the workload's releases — screened, de-duplicated
// and back in timestamp order.
func coreInput(items []stream.Item, slack time.Duration) []*stream.Tuple {
	out := make([]*stream.Tuple, 0, len(items))
	if slack == 0 {
		for _, it := range items {
			out = append(out, it.Tuple)
		}
		return out
	}
	g := stream.NewIngest(stream.IngestConfig{Slack: slack, Policy: stream.LateDeadLetter, Dedup: true})
	var rel []stream.Item
	keep := func() {
		for _, it := range rel {
			if it.Tuple != nil {
				out = append(out, it.Tuple)
			}
		}
	}
	for _, it := range items {
		rel, _ = g.Offer(it, rel[:0])
		keep()
	}
	rel = g.Flush(rel[:0])
	keep()
	return out
}

// seqProbe is one SEQ pattern equal to a registered query, with the stream
// each step reads.
type seqProbe struct {
	query   string
	def     core.Def
	streams []string // stream name per step
}

func colKey(pos int) func(*stream.Tuple) stream.Value {
	return func(t *stream.Tuple) stream.Value { return t.Get(pos) }
}

func colEq(pos int, want string) func(*stream.Tuple) bool {
	v := stream.Str(want)
	return func(t *stream.Tuple) bool { return t.Get(pos).Equal(v) }
}

// plainSeq builds a keyed SEQ over the named streams with a PRECEDING window
// anchored on the last step.
func plainSeq(query string, mode core.Mode, span time.Duration, keyPos int, streams ...string) seqProbe {
	def := core.Def{Mode: mode, Window: &core.WindowAnchor{Span: span, Step: len(streams) - 1}}
	for _, s := range streams {
		def.Steps = append(def.Steps, core.Step{Alias: s, Key: colKey(keyPos)})
	}
	return seqProbe{query: query, def: def, streams: streams}
}

// seqProbes returns the PatternDefs equal to the workload's SEQ queries.
func seqProbes(w *workload) []seqProbe {
	switch w.name {
	case "core_serial", "core_shard2", "core_cluster2":
		win := 60 * time.Second
		containment := seqProbe{query: "ex7_containment", streams: []string{"R1", "R2"}, def: core.Def{
			Mode: core.ModeChronicle,
			Steps: []core.Step{
				{Alias: "R1", Star: true, MaxGap: 100 * time.Millisecond},
				{Alias: "R2"},
			},
			Pred: func(partial *core.Match, step int, t *stream.Tuple) bool {
				if step != 1 {
					return true
				}
				last := partial.Last(0)
				return last != nil && t.TS.Sub(last.TS) <= 500*time.Millisecond
			},
			ExpireAfter: 500 * time.Millisecond,
		}}
		return []seqProbe{
			plainSeq("ex6_chronicle", core.ModeChronicle, win, 1, "C1", "C2", "C3", "C4"),
			plainSeq("ex6_recent", core.ModeRecent, win, 1, "C1", "C2"),
			plainSeq("ex6_consecutive", core.ModeConsecutive, win, 1, "C1", "C2"),
			plainSeq("ex6_unrestricted", core.ModeUnrestricted, win, 1, "C1", "C2"),
			containment,
		}
	case "fanout_route":
		// The merged group's shared automaton: C1 at the DOCK reader, any C2.
		p := plainSeq("shared-prefix group", core.ModeUnrestricted, time.Second, 1, "C1", "C2")
		p.def.Steps[0].Filter = colEq(0, "DOCK")
		return []seqProbe{p}
	case "dirty_durable":
		return []seqProbe{plainSeq("seq_strict", core.ModeRecent, 2*time.Second, 0, "readings", "tag_locations")}
	}
	return nil
}

// drive is how the engine feeds a matcher on a workload: exact pushes one
// tuple and advances the clock after every arrival on any stream; otherwise
// same-stream runs go through PushBatchAt and the clock advances once per
// every items.
type drive struct {
	exact bool
	every int
}

// probeMatchers runs every SEQ probe over the in-order tuples and returns
// the total time and per-query match counts.
func probeMatchers(w *workload, tuples []*stream.Tuple, d drive) (time.Duration, map[string]int, error) {
	probes := seqProbes(w)
	counts := map[string]int{}
	var total time.Duration
	for _, p := range probes {
		m, err := core.NewMatcher(p.def)
		if err != nil {
			return 0, nil, fmt.Errorf("probe %s: %w", p.query, err)
		}
		res := map[string]*core.Resolved{}
		for _, s := range p.streams {
			res[s] = m.Resolve(s)
		}
		// Resolve each tuple's step set before the clock starts.
		rs := make([]*core.Resolved, len(tuples))
		for i, t := range tuples {
			rs[i] = res[t.Schema.Name()]
		}
		n := 0
		t0 := time.Now()
		if d.exact {
			for i, t := range tuples {
				if r := rs[i]; r != nil {
					ms, err := m.PushResolved(r, t)
					if err != nil {
						return 0, nil, fmt.Errorf("probe %s: %w", p.query, err)
					}
					n += len(ms)
				}
				m.Advance(t.TS)
			}
		} else {
			for i := 0; i < len(tuples); {
				end := i + d.every
				if end > len(tuples) {
					end = len(tuples)
				}
				for i < end {
					j := i + 1
					for j < end && tuples[j].Schema == tuples[i].Schema {
						j++
					}
					if r := rs[i]; r != nil {
						bm, err := m.PushBatchAt(r, tuples[i:j], nil)
						if err != nil {
							return 0, nil, fmt.Errorf("probe %s: %w", p.query, err)
						}
						n += len(bm)
					}
					i = j
				}
				m.Advance(tuples[end-1].TS)
			}
		}
		total += time.Since(t0)
		counts[p.query] = n
	}
	return total, counts, nil
}

// probeException runs the EX5 pattern through core.NewExceptionMatcher: a
// push for every clinic reading, and — as the engine does for a
// time-sensitive query — a clock advance after every arrival.
func probeException(tuples []*stream.Tuple) (time.Duration, int, error) {
	def := core.Def{
		Mode:   core.ModeConsecutive,
		Window: &core.WindowAnchor{Span: clinicDeadline, Step: 0, Following: true},
	}
	for _, s := range []string{"A1", "A2", "A3"} {
		def.Steps = append(def.Steps, core.Step{Alias: s, Key: colKey(1)})
	}
	m, err := core.NewExceptionMatcher(def)
	if err != nil {
		return 0, 0, err
	}
	n := 0
	t0 := time.Now()
	for _, t := range tuples {
		switch name := t.Schema.Name(); name {
		case "A1", "A2", "A3":
			_, exs, err := m.Push(t, name)
			if err != nil {
				return 0, 0, err
			}
			n += len(exs)
		}
		n += len(m.Advance(t.TS))
	}
	return time.Since(t0), n, nil
}

// probeIngest offers the arrival sequence, as it arrived, to a bare
// stream.Ingest configured like the workload's boundary.
func probeIngest(items []stream.Item, slack time.Duration) time.Duration {
	g := stream.NewIngest(stream.IngestConfig{Slack: slack, Policy: stream.LateDeadLetter, Dedup: true})
	var out []stream.Item
	t0 := time.Now()
	for _, it := range items {
		out, _ = g.Offer(it, out[:0])
	}
	g.Flush(out[:0])
	return time.Since(t0)
}

// fanEvent is one recorded output row on its way through a fan-in probe.
type fanEvent struct {
	ts  stream.Timestamp
	seq uint64
}

// probeFanIn replays the delivered rows through a bare two-source
// stream.FanIn: rows go to a source by content hash and are offered in
// 64-row bursts with the burst's last timestamp as that source's watermark.
func probeFanIn(rows []rowRec) (total time.Duration, maxPending int) {
	delivered := 0
	f := stream.NewFanIn(2, 4096,
		func(a, b fanEvent) bool {
			if a.ts != b.ts {
				return a.ts < b.ts
			}
			return a.seq < b.seq
		},
		func(e fanEvent) stream.Timestamp { return e.ts },
		func(fanEvent) { delivered++ })
	var bursts [2][]fanEvent
	hi := stream.MinTimestamp
	t0 := time.Now()
	for i, r := range rows {
		// The stage needs non-decreasing input per source.
		if r.ts > hi {
			hi = r.ts
		}
		src := int(r.hash & 1)
		bursts[src] = append(bursts[src], fanEvent{ts: hi, seq: uint64(i)})
		if len(bursts[src]) == pacedBatch {
			f.Offer(src, bursts[src], hi)
			bursts[src] = bursts[src][:0]
			if p := f.Pending(); p > maxPending {
				maxPending = p
			}
		}
	}
	for src := range bursts {
		f.Offer(src, bursts[src], hi)
	}
	f.FlushAll()
	return time.Since(t0), maxPending
}

// probeWindow adds every tuple to one window.TimeBuffer per span and evicts
// behind it, as the windowed operators do.
func probeWindow(tuples []*stream.Tuple, spans []time.Duration) time.Duration {
	var total time.Duration
	for _, span := range spans {
		var b window.TimeBuffer
		t0 := time.Now()
		for _, t := range tuples {
			_ = b.Add(t) // input is in order; Add only fails on disorder
			b.EvictBefore(t.TS.Add(-span))
		}
		total += time.Since(t0)
	}
	return total
}

// probeJournal appends every item to a fresh journal, flushing every 256 as
// the engine's group commit does, and reports time and bytes on disk.
func probeJournal(items []stream.Item, dir string) (time.Duration, int64, error) {
	j, err := snapshot.OpenJournal(dir, snapshot.JournalConfig{Fsync: snapshot.FsyncNever})
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	for i, it := range items {
		if err := j.AppendItemAt(uint64(i+1), it); err != nil {
			j.Close()
			return 0, 0, err
		}
		if (i+1)%maxBatch == 0 {
			if err := j.Flush(); err != nil {
				j.Close()
				return 0, 0, err
			}
		}
	}
	if err := j.Flush(); err != nil {
		j.Close()
		return 0, 0, err
	}
	d := time.Since(t0)
	if err := j.Close(); err != nil {
		return 0, 0, err
	}
	return d, dirSize(dir, "journal-"), nil
}

func dirSize(dir, prefix string) int64 {
	var n int64
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), prefix) {
			if fi, err := e.Info(); err == nil {
				n += fi.Size()
			}
		}
	}
	return n
}

// dbProbe is the isolated cost of the table operations the workload issues.
type dbProbe struct {
	probeNs, probeAllocs, insertNs float64
	probes                         int
}

// probeDB builds an indexed table of the context table's size and times
// Version.Probe on the join keys the trace carries, then Table.Insert into a
// table already holding finalRows rows.
func probeDB(tuples []*stream.Tuple, tableRows, finalRows int) (dbProbe, error) {
	schema := stream.MustSchema("probe_info",
		stream.Field{Name: "tagid"}, stream.Field{Name: "owner"}, stream.Field{Name: "category"})
	tbl := db.NewTable(schema)
	if err := tbl.CreateIndex("tagid"); err != nil {
		return dbProbe{}, err
	}
	for i := 0; i < tableRows; i++ {
		if _, err := tbl.Insert([]stream.Value{stream.Str(dirtyTag(i)), stream.Str("o"), stream.Str("c")}); err != nil {
			return dbProbe{}, err
		}
	}
	var keys []stream.Value
	for _, t := range tuples {
		if t.Schema.Name() == "readings" {
			keys = append(keys, t.Get(1))
		}
	}
	var p dbProbe
	if len(keys) > 0 {
		ver := tbl.Head()
		var buf []*db.Row
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for _, k := range keys {
			buf = ver.Probe(0, k, buf[:0])
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		p.probes = len(keys)
		p.probeNs = float64(d.Nanoseconds()) / float64(len(keys))
		p.probeAllocs = float64(m1.Mallocs-m0.Mallocs) / float64(len(keys))
	}
	mv := db.NewTable(stream.MustSchema("probe_movement",
		stream.Field{Name: "tagid"}, stream.Field{Name: "location"}, stream.Field{Name: "start_time"}))
	if err := mv.CreateIndex("tagid"); err != nil {
		return dbProbe{}, err
	}
	row := func(i int) []stream.Value {
		return []stream.Value{stream.Str(dirtyTag(i % dirtyObjects)), stream.Str("zone"), stream.Time(stream.Timestamp(i))}
	}
	for i := 0; i < finalRows; i++ {
		if _, err := mv.Insert(row(i)); err != nil {
			return dbProbe{}, err
		}
	}
	const inserts = 2000
	t0 := time.Now()
	for i := 0; i < inserts; i++ {
		if _, err := mv.Insert(row(finalRows + i)); err != nil {
			return dbProbe{}, err
		}
	}
	p.insertNs = float64(time.Since(t0).Nanoseconds()) / inserts
	return p, nil
}

// scratchSub makes a fresh directory under the run's scratch space.
func (r *runner) scratchSub(name string) (string, error) {
	d := filepath.Join(r.cfg.scratch, fmt.Sprintf("run-%d-%s-%s", os.Getpid(), r.cfg.w.name, name))
	r.dirs = append(r.dirs, d)
	return d, os.MkdirAll(d, 0o755)
}
