package main

// metricDef declares one benchmark metric as BENCHMARK.json lists it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees; every untraced run
// reports all of them. floor is the bound ISSUE 11 starts from; calibration
// may only widen it (to three times the measured spread), never past maxBound.
var endToEnd = []struct {
	metricDef
	floor float64
}{
	{metricDef{Name: "setup_s", Unit: "s", Better: "lower"}, 0.25},
	{metricDef{Name: "events_per_s", Unit: "events/s", Better: "higher"}, 0.05},
	{metricDef{Name: "emit_latency_p50_ms", Unit: "ms", Better: "lower"}, 0.10},
	{metricDef{Name: "emit_latency_p90_ms", Unit: "ms", Better: "lower"}, 0.10},
	{metricDef{Name: "alloc_bytes_per_event", Unit: "B/event", Better: "lower"}, 0.02},
	{metricDef{Name: "peak_rss_mb", Unit: "MB", Better: "lower"}, 0.05},
}

const maxBound = 0.25

// perLayer are the single-layer metrics of a traced run, named layer.metric
// after the module they measure. better is the direction an optimisation of
// that layer should move them; they carry no bound.
var perLayer = []metricDef{
	{Name: "feed.decode_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "feed.bytes_per_event", Unit: "B", Better: "lower"},
	{Name: "feed.gen_lag_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "feed.backlog_end_events", Unit: "count", Better: "lower"},
	{Name: "stream.ingest_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "stream.ingest_reordered", Unit: "count", Better: "lower"},
	{Name: "stream.ingest_dropped_dup", Unit: "count", Better: "lower"},
	{Name: "stream.ingest_dead_lettered", Unit: "count", Better: "lower"},
	{Name: "stream.ingest_max_pending", Unit: "count", Better: "lower"},
	{Name: "stream.fanin_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "stream.fanin_max_pending", Unit: "count", Better: "lower"},
	{Name: "core.matcher_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "core.exception_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "core.matches", Unit: "count", Better: "higher"},
	{Name: "core.exceptions", Unit: "count", Better: "higher"},
	{Name: "core.runs_live_end", Unit: "count", Better: "lower"},
	{Name: "core.state_tuples_end", Unit: "count", Better: "lower"},
	{Name: "window.buffer_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "esl.push_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "esl.self_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "esl.time_sensitive", Unit: "0/1", Better: "lower"},
	{Name: "esl.routed_per_event", Unit: "ratio", Better: "lower"},
	{Name: "esl.skipped_delivery_frac", Unit: "ratio", Better: "higher"},
	{Name: "esl.merged_member_frac", Unit: "ratio", Better: "higher"},
	{Name: "esl.exec_ddl_ms", Unit: "ms", Better: "lower"},
	{Name: "esl.register_us_per_query", Unit: "us", Better: "lower"},
	{Name: "esl.drain_ms", Unit: "ms", Better: "lower"},
	{Name: "esl.rows_out", Unit: "count", Better: "higher"},
	{Name: "esl.quarantined_queries", Unit: "count", Better: "lower"},
	{Name: "db.probe_ns", Unit: "ns", Better: "lower"},
	{Name: "db.probe_allocs", Unit: "count", Better: "lower"},
	{Name: "db.insert_ns", Unit: "ns", Better: "lower"},
	{Name: "db.rows_end", Unit: "count", Better: "lower"},
	{Name: "db.versions_live", Unit: "count", Better: "lower"},
	{Name: "snapshot.journal_append_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "snapshot.journal_bytes_per_event", Unit: "B", Better: "lower"},
	{Name: "snapshot.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "snapshot.checkpoint_bytes", Unit: "B", Better: "lower"},
	{Name: "snapshot.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "snapshot.recover_ms", Unit: "ms", Better: "lower"},
	{Name: "snapshot.replay_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "spec.asserted", Unit: "count", Better: "higher"},
	{Name: "spec.confirmed", Unit: "count", Better: "higher"},
	{Name: "spec.retracted", Unit: "count", Better: "lower"},
	{Name: "spec.late_finals", Unit: "count", Better: "lower"},
	{Name: "spec.pending_max", Unit: "count", Better: "lower"},
	{Name: "spec.first_answer_lead_ms", Unit: "ms", Better: "higher"},
	{Name: "spec.fast_over_strict_ns_ratio", Unit: "ratio", Better: "lower"},
	{Name: "shard.push_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "shard.skew", Unit: "ratio", Better: "lower"},
	{Name: "shard.pinned_frac", Unit: "ratio", Better: "lower"},
	{Name: "shard.cpu_util", Unit: "ratio", Better: "higher"},
	{Name: "shard.speedup_vs_serial", Unit: "ratio", Better: "higher"},
	{Name: "cluster.push_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "cluster.wire_bytes_out_per_event", Unit: "B", Better: "lower"},
	{Name: "cluster.wire_bytes_in_per_row", Unit: "B", Better: "lower"},
	{Name: "cluster.node_read_wait_frac", Unit: "ratio", Better: "lower"},
	{Name: "cluster.node_write_wait_frac", Unit: "ratio", Better: "lower"},
	{Name: "cluster.skew", Unit: "ratio", Better: "lower"},
	{Name: "cluster.failovers", Unit: "count", Better: "lower"},
	{Name: "cluster.dial_seal_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.speedup_vs_serial", Unit: "ratio", Better: "higher"},
	{Name: "sink.row_cb_ns", Unit: "ns", Better: "lower"},
	{Name: "sink.out_of_order_rows", Unit: "count", Better: "lower"},
	{Name: "sink.emit_latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "proc.mallocs_per_event", Unit: "count", Better: "lower"},
	{Name: "proc.cpu_s", Unit: "s", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "trace.attribution_residual_frac", Unit: "ratio", Better: "lower"},
}

// unitOf returns the declared unit of a metric.
func unitOf(name string) string {
	for _, d := range endToEnd {
		if d.Name == name {
			return d.Unit
		}
	}
	for _, d := range perLayer {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("bench: metric " + name + " is not declared in metrics.go")
}
