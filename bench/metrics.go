package main

// The metric catalogue. BENCHMARK.json lists the same names and units (the
// smoke test fails when the two drift apart); bounds live only there.

type metricDef struct {
	name, unit string
	// exact marks a per-layer count that a run of the same seed must
	// reproduce to the last digit (golden/seed1.json pins them for seed 1).
	exact bool
}

// endToEnd is what a user of the scheduler sees; every workload reports all
// of them from untraced passes. Lower is better for each.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "wall_s", unit: "s"},
	{name: "reset_ms_p50", unit: "ms"},
	{name: "reset_ms_p95", unit: "ms"},
	{name: "alloc_mb", unit: "MB"},
}

// perLayer comes from the traced pass. A layer a workload bypasses reports
// 0 for its metrics; that zero is the "this workload does not touch it"
// half of every prediction in README.md.
var perLayer = []metricDef{
	// The whole stack's cost of one round, all rounds: too dependent on the
	// seed's drain curve on sim_las_ss to carry a bound (README.md).
	{"round_ms_p50", "ms", false},

	{"simulator.rounds", "count", true},
	{"simulator.resets", "count", true},
	{"simulator.self_ms_sum", "ms", false},
	{"simulator.quiet_round_us_p50", "us", false},

	{"policy.allocate_calls", "count", true},
	{"policy.allocate_ms_sum", "ms", false},
	{"policy.allocate_ms_p50", "ms", false},
	{"policy.self_ms_sum", "ms", false},
	{"policy.maxmin_1024_cold_ms", "ms", false},
	{"policy.maxmin_1024_churn_ms", "ms", false},
	{"policy.maxmin_256_cold_ms", "ms", false},
	{"policy.maxmin_256_churn_ms", "ms", false},
	{"policy.ftf_256_cold_ms", "ms", false},
	{"policy.ftf_256_churn_ms", "ms", false},
	{"policy.cost_4096_cold_ms", "ms", false},
	{"policy.cost_4096_drift_ms", "ms", false},
	{"policy.cost_1024_perturb_ms", "ms", false},
	{"policy.hier_128_warm_ms", "ms", false},

	{"lp.solves", "count", true},
	{"lp.warm_solves", "count", true},
	{"lp.remapped_solves", "count", true},
	{"lp.cold_solves", "count", true},
	{"lp.warm_hit_ratio", "ratio", true},
	{"lp.iterations", "count", true},
	{"lp.dual_iterations", "count", true},
	{"lp.refactorizations", "count", true},
	{"lp.presolve_reductions", "count", true},
	{"lp.fallbacks", "count", true},
	{"lp.solve_ms_sum", "ms", false},
	{"lp.us_per_iteration", "us", false},

	{"core.units_ms_sum", "ms", false},
	{"core.units_calls", "count", true},
	{"core.cache_update_us_p50", "us", false},
	{"workload.provider_calls", "count", true},
	{"workload.provider_ms_sum", "ms", false},

	{"scheduler.assign_us_p50", "us", false},
	{"scheduler.record_us_p50", "us", false},
	{"scheduler.assignments", "count", true},
	{"scheduler.preemptions", "count", true},

	{"rpc.allocate_all_ms_p50", "ms", false},
	{"rpc.assign_round_ms_p50", "ms", false},
	{"rpc.validate_round_us_p50", "us", false},
	{"rpc.remove_us_p50", "us", false},
	{"rpc.observe_measured_us_p50", "us", false},
	{"rpc.end_round_ms_p50", "ms", false},
	{"rpc.snapshot_all_ms_p50", "ms", false},
	{"rpc.coord_self_ms_sum", "ms", false},
	{"rpc.migrations", "count", true},
	{"rpc.recoveries", "count", true},

	{"shard.calls_total", "count", true},
	{"shard.allocate_ms_p50", "ms", false},
	{"shard.assign_round_ms_p50", "ms", false},
	{"shard.install_us_p50", "us", false},
	{"shard.snapshot_ms_p50", "ms", false},
	{"shard.wait_ms_sum", "ms", false},
	{"shard.skew_ms_p50", "ms", false},
	{"shard.wire_bytes_computed", "bytes", false},

	{"ingress.submit_us_p50", "us", false},
	{"ingress.submit_us_p95", "us", false},
	{"ingress.poll_us_p50", "us", false},
	{"ingress.admit_pending_us_p50", "us", false},
	{"ingress.queue_wait_rounds_p50", "rounds", true},
	{"ingress.submitted", "count", true},
	{"ingress.admitted", "count", true},
	{"ingress.refused_overload", "count", true},
	{"ingress.shed", "count", true},
	{"ingress.quarantined_tenants", "count", true},

	{"journal.bytes_total", "bytes", false},
	{"journal.bytes_per_round", "bytes", false},
	{"journal.appends", "count", true},
	{"journal.fsyncs", "count", true},
	{"journal.fsync_ms_sum", "ms", false},
	{"journal.replay_ms_mean", "ms", false},
	{"journal.replay_mb_per_s", "MB/s", false},
	{"journal.replayed_bytes_total", "bytes", false},

	{"obs.trace_overhead_pct", "%", false},
	{"obs.spans_recorded", "count", true},

	{"runtime.cpu_s", "s", false},
	{"runtime.gc_cycles", "count", false},
	{"runtime.gc_pause_ms_sum", "ms", false},
	{"runtime.mallocs_k", "count", false},
	{"runtime.peak_heap_mb", "MB", false},
	{"runtime.peak_rss_mb", "MB", false},
	{"runtime.goroutines_max", "count", false},
	{"runtime.calib_ms", "ms", false},
	{"runtime.passes_run", "count", false},

	{"quality.avg_jct_h", "h", true},
	{"quality.makespan_h", "h", true},
	{"quality.unfinished", "count", true},
}

// workloadDefs is the benchmark's workload list, in run order. Why each
// exists and which layers it bypasses is in BENCHMARK.json and README.md.
var workloadDefs = []workloadDef{
	{name: "sim_las_ss", prepare: prepareSim},
	{name: "solve_scale", prepare: prepareSolve},
	{name: "svc_stream", prepare: prepareStream},
	{name: "svc_crash_replay", prepare: prepareCrash},
}
