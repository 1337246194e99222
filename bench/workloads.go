package main

import (
	"fmt"

	"repro/internal/snapshot"
)

// workload is one benchmark scenario. events and pacedRate are frozen: a
// max phase pushes events x seconds/10 items — a count, not a duration, so
// program-made counts repeat exactly — which takes the serial engine about
// a tenth of the run at seed speed, and a paced phase sends pacedRate x
// seconds/10 items at pacedRate, a quarter to a third of the seed's
// closed-loop throughput. At half, a batch that takes twice the usual time
// (one caught by a GC cycle) already overruns its period on core_serial and
// fanout_route, and the tail latency then amplifies every wobble in machine
// speed; lower keeps the paced phase measuring service time, not queueing.
type workload struct {
	name      string
	why       string
	topo      topology
	gen       func(seed int64, n int) *input
	events    int
	pacedRate float64
	durable   bool
}

var workloads = []*workload{
	{
		name: "core_serial", topo: topoSerial, gen: genCore, events: 22000, pacedRate: 6000,
		why: "paper section-3 operators (SEQ modes, star, EXCEPTION_SEQ, FOLLOWING window, EPC aggregate) on one serial engine: core.Matcher and the exact per-item path do the work; baseline for the topologies",
	},
	{
		name: "core_shard2", topo: topoShard2, gen: genCore, events: 22000, pacedRate: 6000,
		why: "same bytes and queries through shard.New(2): isolates hash router, worker queues, timestamp-ordered combiner and shard-0 pinning",
	},
	{
		name: "core_cluster2", topo: topoCluster2, gen: genCore, events: 22000, pacedRate: 6000,
		why: "same bytes and queries through cluster.Dial to two loopback nodes: adds wire codec, credit back-pressure, query homing and fan-in over the same operator work",
	},
	{
		name: "fanout_route", topo: topoSerial, gen: genFanout, events: 42000, pacedRate: 12000,
		why: "1024 guarded two-step SEQ queries (half share a prefix) plus 64 EPC filters on the batched path: esl's route index, merged automata, batch kernels and epc_match do the work, core.Matcher almost none",
	},
	{
		name: "dirty_durable", topo: topoSerial, gen: genDirty, events: 90000, pacedRate: 22000, durable: true,
		why: "disordered, duplicated, journaled feed into dedup, insert-if-absent, context join, aggregates, FAST/STRICT SEQ: only here do ingest, journal, checkpoint, MVCC db and spec run; matcher 4% of a push",
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// rigConfig returns how to build this workload's target; dir is the journal
// directory for durable workloads.
func (w *workload) rigConfig(batch int, dir string) rigConfig {
	cfg := rigConfig{topo: w.topo, batch: batch}
	if w.durable {
		cfg.opts = dirtyOptions(dir)
	}
	return cfg
}

// runReference computes the expected rows of a workload whose reference is
// an engine, not generator ground truth: a strict serial engine — no slack,
// no dedup, no journal — fed the clean, sorted, fault-free feed. Speculative
// registrations degrade to strict there, so every row is a final.
func runReference(w *workload, in *input) (map[string]rowSet, error) {
	sk := newSink(in.n*4, false)
	r, err := buildRig(rigConfig{topo: topoSerial, batch: maxBatch}, in, sk)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	defer r.close()
	dec := &decoder{data: in.clean, resolve: snapshot.SchemaResolver(r.StreamSchema)}
	for dec.off < len(dec.data) {
		items, err := dec.next(maxBatch)
		if err != nil {
			return nil, fmt.Errorf("reference: %w", err)
		}
		if err := r.PushBatch(items); err != nil {
			return nil, fmt.Errorf("reference: %w", err)
		}
	}
	if err := r.Drain(); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	expect := make(map[string]rowSet, len(in.queries))
	for _, q := range in.queries {
		expect[q.name] = rowSet{}
	}
	for _, rec := range sk.rows {
		expect[in.queries[rec.q].name][rec.hash] += int(rec.sign)
	}
	return expect, nil
}
