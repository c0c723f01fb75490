package main

// metricSpec is one declared metric; the lists mirror BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics of an untraced run, as a user of the
// system sees them.
var endToEnd = []metricSpec{
	{"wall_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.2},
	{"ok_frac", "ratio", "higher", 0.01},
	{"paper_rank_rho", "ratio", "higher", 0.25},
	{"rank_spearman", "ratio", "higher", 0.05},
	{"cpi_err_mean_pct", "%", "lower", 0.25},
	{"ci_coverage", "ratio", "higher", 0.25},
	{"ci_half_mean_pct", "%", "lower", 0.25},
	{"instr_reduction", "x", "higher", 0.05},
}

// perLayer are the metrics of a traced run, one group per layer.
var perLayer = []metricSpec{
	{"runner.row_ms_p50", "ms", "lower", 0},
	{"runner.row_ms_p99", "ms", "lower", 0},
	{"runner.row_samples", "count", "higher", 0},
	{"runner.queue_wait_ms_p50", "ms", "lower", 0},
	{"runner.occupancy", "ratio", "higher", 0},
	{"runner.attempts_per_row", "ratio", "lower", 0},
	{"sim.new_us", "us", "lower", 0},
	{"sim.prewarm_us", "us", "lower", 0},
	{"sim.detail_ns_per_instr", "ns", "lower", 0},
	{"sim.funcwarm_ns_per_instr", "ns", "lower", 0},
	{"sim.stats_digest", "hash", "higher", 0},
	{"cache.prewarm_ns_per_block", "ns", "lower", 0},
	{"cache.access_ns", "ns", "lower", 0},
	{"cache.l1d_miss_rate", "ratio", "lower", 0},
	{"cache.l2_miss_rate", "ratio", "lower", 0},
	{"bpred.update_ns", "ns", "lower", 0},
	{"bpred.mispredict_rate", "ratio", "lower", 0},
	{"trace.next_ns", "ns", "lower", 0},
	{"trace.skip_ns", "ns", "lower", 0},
	{"trace.restore_us", "us", "lower", 0},
	{"trace.compile_ms", "ms", "lower", 0},
	{"sampling.schedule_ms", "ms", "lower", 0},
	{"sampling.row_ms", "ms", "lower", 0},
	{"sampling.detailed_instr_per_row", "count", "lower", 0},
	{"sampling.functional_instr_per_row", "count", "lower", 0},
	{"sampling.regions_per_row", "count", "lower", 0},
	{"enhance.profile_ms", "ms", "lower", 0},
	{"enhance.hit_rate", "ratio", "higher", 0},
	{"enhance.suite_ratio", "ratio", "lower", 0},
	{"report.analysis_ms", "ms", "lower", 0},
	{"pbcheck.load_s", "s", "lower", 0},
	{"pbcheck.facts_ms", "ms", "lower", 0},
	{"pbcheck.pointsto_ms", "ms", "lower", 0},
	{"pbcheck.rules_ms", "ms", "lower", 0},
	{"pbcheck.packages", "count", "higher", 0},
	{"pbcheck.findings", "count", "lower", 0},
}
