package main

// metricSpec names one metric the benchmark reports.
type metricSpec struct {
	name, unit, better string
}

// endToEnd are the metrics of a --trace 0 run, measured on every
// workload with tracing off.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"heap_mb", "MB", "lower"},
	{"delivered_share", "ratio", "higher"},
	{"cpu_us_per_msg", "us", "lower"},
}

// perLayer are the metrics of a --trace 1 run. Span times are means per
// call (per message for walk-level spans) so that self times add up.
var perLayer = []metricSpec{
	{"bigraph.extract_ns", "ns", "lower"},
	{"nbhd.extract_ns", "ns", "lower"},
	{"prep.build_ns", "ns", "lower"},
	{"prep.build_self_ns", "ns", "lower"},
	{"prep.views_built", "count", "lower"},
	{"prep.hit_rate", "ratio", "higher"},
	{"prep.bytes_per_view", "bytes", "lower"},
	{"prep.hit_ns", "ns", "lower"},
	{"route.decide_ns", "ns", "lower"},
	{"route.decide_self_ns", "ns", "lower"},
	{"route.decisions_per_msg", "count", "lower"},
	{"graph.has_edge_ns", "ns", "lower"},
	{"graph.dist_ns", "ns", "lower"},
	{"sim.clone_ns", "ns", "lower"},
	{"sim.walk_ns", "ns", "lower"},
	{"sim.walk_self_ns", "ns", "lower"},
	{"engine.route_ns", "ns", "lower"},
	{"engine.queue_wait_ns", "ns", "lower"},
	{"engine.busy_share", "ratio", "higher"},
	{"engine.allocs_per_msg", "count", "lower"},
	{"metrics.observe_ns", "ns", "lower"},
	{"serve.handler_ns", "ns", "lower"},
	{"serve.overhead_ns", "ns", "lower"},
	{"serve.reply_bytes", "bytes", "lower"},
	{"serve.rejected", "count", "lower"},
	{"serve.patch_ns", "ns", "lower"},
	{"serve.patch_http_p50_ms", "ms", "lower"},
	{"serve.patch_http_p90_ms", "ms", "lower"},
	{"churn.apply_ns", "ns", "lower"},
	{"churn.dirty_views", "count", "lower"},
	{"prep.derive_ns", "ns", "lower"},
	{"bench.msgs_per_s", "1/s", "higher"},
	{"bench.gen_lag_ms", "ms", "lower"},
	{"bench.p50_ms.r1", "ms", "lower"},
	{"bench.p90_ms.r1", "ms", "lower"},
	{"bench.p99_ms.r1", "ms", "lower"},
	{"bench.p50_ms.r2", "ms", "lower"},
	{"bench.p90_ms.r2", "ms", "lower"},
	{"bench.p99_ms.r2", "ms", "lower"},
	{"bench.trace_overhead", "ratio", "lower"},
	{"budget.coverage", "ratio", "higher"},
}
