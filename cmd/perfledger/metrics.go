package main

// metricDef names one reported metric. BENCHMARK.json at the repository
// root lists the same names, units and directions (checked by
// TestBenchmarkJSONMatchesDefinitions).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. Every workload reports every one of them; README.md
// gives each metric's definition per workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.24},
	{"points_per_s", "points/s", "higher", 0.24},
	{"peak_rss_mb", "MiB", "lower", 0.15},
}

// perLayer are the metrics of single layers, measured from outside the
// program in a traced run. A layer a workload does not exercise reports
// zero.
var perLayer = []metricDef{
	// gmeansmr facade staging, replayed through pointtext and dfs.
	{"stage.read_s", "s", "lower", 0},
	{"stage.format_s", "s", "lower", 0},
	{"stage.write_s", "s", "lower", 0},
	{"dfs.staged_bytes", "bytes", "lower", 0},
	// dfs cold decode.
	{"dfs.decode_s", "s", "lower", 0},
	{"dfs.columns_s", "s", "lower", 0},
	{"dfs.decode_mb_per_s", "MB/s", "higher", 0},
	{"dfs.splits", "count", "lower", 0},
	{"dfs.dataset_reads", "count", "lower", 0},
	// mr engine.
	{"mr.map_wave_s", "s", "lower", 0},
	{"mr.reduce_wave_s", "s", "lower", 0},
	{"mr.job_overhead_s", "s", "lower", 0},
	{"mr.jobs", "count", "lower", 0},
	{"mr.map_tasks", "count", "lower", 0},
	{"mr.shuffle_bytes", "bytes", "lower", 0},
	{"mr.shuffle_records", "count", "lower", 0},
	{"mr.map_output_records", "count", "lower", 0},
	{"mr.combine_ratio", "ratio", "lower", 0},
	// core and kmeansmr drivers.
	{"core.run_s", "s", "lower", 0},
	{"core.rounds", "count", "lower", 0},
	{"core.round_s", "s", "lower", 0},
	{"core.init_s", "s", "lower", 0},
	{"core.driver_s", "s", "lower", 0},
	{"core.distances", "count", "lower", 0},
	{"core.projections", "count", "lower", 0},
	{"core.k_error", "ratio", "lower", 0},
	{"core.mean_dist", "units", "lower", 0},
	{"kmeansmr.multi_s", "s", "lower", 0},
	{"kmeansmr.evaluate_s", "s", "lower", 0},
	// stats (Anderson–Darling).
	{"stats.ad_tests", "count", "lower", 0},
	{"stats.us_per_test", "us", "lower", 0},
	{"stats.ad_est_s", "s", "lower", 0},
	// vec kernels.
	{"vec.ns_per_dist", "ns", "lower", 0},
	{"vec.kernel_est_s", "s", "lower", 0},
	{"vec.kernel_share", "ratio", "lower", 0},
	{"vec.nearest_rows_us", "us", "lower", 0},
	// mrdist transport.
	{"mrdist.first_task_s", "s", "lower", 0},
	{"mrdist.push_bytes", "bytes", "lower", 0},
	{"mrdist.push_s", "s", "lower", 0},
	{"mrdist.task_rpcs", "count", "lower", 0},
	{"mrdist.task_rpc_s", "s", "lower", 0},
	{"mrdist.task_req_bytes", "bytes", "lower", 0},
	{"mrdist.task_resp_bytes", "bytes", "lower", 0},
	{"mrdist.heartbeat_rpcs", "count", "lower", 0},
	{"mrdist.retries", "count", "lower", 0},
	{"mrdist.dispatch_efficiency", "ratio", "higher", 0},
	{"mrdist.overhead_s", "s", "lower", 0},
	// model and serve.
	{"model.load_ms", "ms", "lower", 0},
	{"serve.new_ms", "ms", "lower", 0},
	{"serve.assign_us", "us", "lower", 0},
	{"serve.assign_batch_us", "us", "lower", 0},
	{"serve.swap_us", "us", "lower", 0},
	{"serve.single_framing_us", "us", "lower", 0},
	{"serve.batch_framing_us", "us", "lower", 0},
	{"serve.single_p50_ms", "ms", "lower", 0},
	{"serve.single_p90_ms", "ms", "lower", 0},
	{"serve.single_p99_ms", "ms", "lower", 0},
	{"serve.batch_p50_ms", "ms", "lower", 0},
	{"serve.batch_p90_ms", "ms", "lower", 0},
	{"serve.batch_p99_ms", "ms", "lower", 0},
	{"serve.closed_p99_ms", "ms", "lower", 0},
	{"serve.client_wait_p99_ms", "ms", "lower", 0},
	{"serve.gen_late_p99_ms", "ms", "lower", 0},
	{"serve.requests", "count", "higher", 0},
	{"serve.failed", "count", "lower", 0},
	{"serve.verify_mismatches", "count", "lower", 0},
	{"serve.swaps", "count", "higher", 0},
	// Self-checks of the trace itself.
	{"trace.explained_ratio", "ratio", "higher", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
	{"trace.spans", "count", "lower", 0},
}
