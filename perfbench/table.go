package main

// metricDef is one metric the benchmark reports: end-to-end metrics with
// tracing off (--trace 0), per-layer metrics from a traced run (--trace 1).
// BENCHMARK.json names the same metrics with the same units.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd is measured on every workload. Frame metrics on adapt-shift
// come from the bursts and probes its VMs send each round.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"goodput_mbps", "Mbit/s", "higher"},
	{"frames_per_s", "1/s", "higher"},
	{"frame_latency_p50_us", "us", "lower"},
	{"cpu_us_per_frame", "us", "lower"},
	{"peak_heap_mb", "MB", "lower"},
}

// perLayer is printed for every workload; a layer a workload does not
// exercise reads 0 there. The control-loop figures (cycle_*, adapt_*,
// adapted_residual_mbps) exist only on adapt-shift, so they live here and
// not among the end-to-end metrics every workload must produce. So does
// the p99 frame latency: on a shared 2-core box it moves 20-70% from run to
// run with the box's load, more than any bound an end-to-end metric may
// have.
var perLayer = []metricDef{
	{"frame_latency_p99_us", "us", "lower"},
	{"vnet.inject_us", "us", "lower"},
	{"vnet.allocs_per_frame", "count", "lower"},
	{"vnet.transit_us", "us", "lower"},
	{"vnet.frames_dropped", "count", "lower"},
	{"vnet.frames_resent", "count", "lower"},
	{"vnet.flood_copies_per_migration", "count", "lower"},
	{"vnet.flood_settle_ms", "ms", "lower"},
	{"vnet.feed_ring_dropped_frac", "ratio", "lower"},
	{"vnet.report_us", "us", "lower"},
	{"vnet.apply_ms", "ms", "lower"},
	{"vnet.apply_steps", "count", "lower"},
	{"vnet.apply_rollbacks", "count", "lower"},
	{"wren.feed_ns_per_record", "ns", "lower"},
	{"wren.feed_batch_records", "count", "higher"},
	{"wren.poll_ms", "ms", "lower"},
	{"wren.busy_frac", "ratio", "lower"},
	{"wren.trains_formed", "count", "higher"},
	{"wren.useful_train_frac", "ratio", "higher"},
	{"vttif.aggregate_us", "us", "lower"},
	{"vttif.deltas_per_cycle", "count", "lower"},
	{"vttif.rounds_to_detect", "count", "lower"},
	{"control.sense_ms", "ms", "lower"},
	{"control.decide_p50_ms", "ms", "lower"},
	{"control.decide_p99_ms", "ms", "lower"},
	{"control.alloc_mb_per_cycle", "MB", "lower"},
	{"control.cycles_to_adapt", "count", "lower"},
	{"control.applied_frac", "ratio", "higher"},
	{"vadapt.full_solves", "count", "lower"},
	{"vadapt.warm_solves", "count", "higher"},
	{"vadapt.sa_iterations_per_cycle", "count", "lower"},
	{"coord.put_us", "us", "lower"},
	{"coord.build_map_ms", "ms", "lower"},
	{"coord.parse_us", "us", "lower"},
	{"cycle_p50_ms", "ms", "lower"},
	{"cycle_p99_ms", "ms", "lower"},
	{"adapt_p50_ms", "ms", "lower"},
	{"adapted_residual_mbps", "Mbit/s", "higher"},
	{"trace.overhead_pct", "%", "lower"},
}

// workloads are the names --workload accepts.
var workloads = []string{"relay-small", "stream-measured", "adapt-shift"}
