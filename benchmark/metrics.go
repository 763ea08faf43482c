package main

// metricSpec is one reported metric: its name, unit, which way is better
// and, for end-to-end metrics, the share of the parent's median by which it
// may worsen before a change counts as a regression. BENCHMARK.json carries
// the same table (TestBenchmarkJSONMatchesTable keeps them in step) and
// README.md defines every entry.
type metricSpec struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
}

// endToEnd is what a user of the overlay sees. Every workload reports all
// of them from the untraced run.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"capacity_pps", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"on_time_ratio", "ratio", "higher", 0.15},
	{"delivery_ratio", "ratio", "higher", 0.001},
	{"tx_per_delivery", "count", "lower", 0.15},
	{"allocs_per_pkt", "count", "lower", 0.15},
	{"rss_peak_mb", "MB", "lower", 0.25},
}

// perLayer is the budget underneath, from the traced run and the probes.
var perLayer = []metricSpec{
	{"client.gen_lag_p99_ms", "ms", "lower", 0},
	{"client.backlog_end", "count", "lower", 0},
	{"client.pub_wait_p50_us", "us", "lower", 0},
	{"broker.ingress_p50_us", "us", "lower", 0},
	{"broker.ingress_p99_us", "us", "lower", 0},
	{"algo2.origin_p50_us", "us", "lower", 0},
	{"broker.hop_p50_us", "us", "lower", 0},
	{"broker.hop_p99_us", "us", "lower", 0},
	{"broker.custody_p50_us", "us", "lower", 0},
	{"broker.custody_p99_us", "us", "lower", 0},
	{"algo2.recovery_p50_ms", "ms", "lower", 0},
	{"algo2.hops_per_pkt", "count", "lower", 0},
	{"algo2.timeouts_per_pkt", "count", "lower", 0},
	{"algo2.failovers_per_pkt", "count", "lower", 0},
	{"algo2.reroutes_per_pkt", "count", "lower", 0},
	{"algo2.holds_per_pkt", "count", "lower", 0},
	{"broker.edge_deliver_p50_us", "us", "lower", 0},
	{"broker.edge_deliver_p99_us", "us", "lower", 0},
	{"trace.sum_gap_ratio", "ratio", "lower", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
	{"trace.sampled_pkts", "count", "higher", 0},
	{"ref.latency_p99_ms", "ms", "lower", 0},
	{"ref.cpu_us_per_pkt", "us", "lower", 0},
	{"wire.encode_data_ns", "ns", "lower", 0},
	{"wire.decode_data_ns", "ns", "lower", 0},
	{"wire.encode_batch_ns_per_pkt", "ns", "lower", 0},
	{"wire.decode_batch_ns_per_pkt", "ns", "lower", 0},
	{"wire.allocs_per_frame", "count", "lower", 0},
	{"wire.encode_mux_ns", "ns", "lower", 0},
	{"wire.decode_mux_ns", "ns", "lower", 0},
	{"link.bytes_per_pkt", "B", "lower", 0},
	{"link.writes_per_pkt", "count", "lower", 0},
	{"edge.bytes_per_delivery", "B", "lower", 0},
	{"edge.subs_per_frame", "count", "higher", 0},
	{"algo2.publish_ns", "ns", "lower", 0},
	{"algo2.handle_data_ns", "ns", "lower", 0},
	{"algo2.handle_ack_ns", "ns", "lower", 0},
	{"algo2.allocs_per_op", "count", "lower", 0},
	{"broker.mailbox_depth_max", "count", "lower", 0},
	{"broker.acks_per_batch", "count", "higher", 0},
	{"broker.queue_drops", "count", "lower", 0},
	{"broker.dropped_dests", "count", "lower", 0},
	{"broker.reconnects", "count", "lower", 0},
	{"algo1.epoch_quiet_ns", "ns", "lower", 0},
	{"algo1.epoch_dirty_us", "us", "lower", 0},
	{"algo1.rebuilds", "count", "lower", 0},
	{"algo1.noops", "count", "higher", 0},
	{"algo1.tables_built", "count", "lower", 0},
	{"algo1.linkstates_sent", "count", "lower", 0},
	{"wal.append_durable_p50_us", "us", "lower", 0},
	{"wal.append_durable_p99_us", "us", "lower", 0},
	{"wal.appends_per_fsync", "count", "higher", 0},
	{"wal.fsyncs_per_s", "1/s", "lower", 0},
	{"wal.bytes_per_pkt", "B", "lower", 0},
	{"chaos.frames_seen", "count", "higher", 0},
	{"chaos.drop_ratio", "ratio", "lower", 0},
}

// metricValue is one measured value in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output: exactly these keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// toResult attaches units and checks that values covers exactly specs.
func toResult(specs []metricSpec, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		v, ok := values[s.name]
		if !ok {
			panic("benchmark: metric " + s.name + " was not measured") // a bug in the pass, not the environment
		}
		out[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	if len(values) != len(specs) {
		panic("benchmark: a measured metric is missing from the table")
	}
	return out
}
