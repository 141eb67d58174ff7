package main

import (
	"fmt"
	"slices"
)

// metricDef names a metric and its unit. The two tables below are the
// harness's side of BENCHMARK.json; a test holds them against the file.
type metricDef struct{ name, unit string }

// endToEndMetrics are what a user of the system sees. Every workload
// reports each of them on an end-to-end run.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"primary_p50_ms", "ms"},
	{"primary_p95_ms", "ms"},
	{"throughput_rps", "ops/s"},
	{"cpu_ms_per_op", "ms"},
	{"server_peak_rss_mb", "MiB"},
	{"answered_ratio", "ratio"},
}

// perLayerMetrics belong to single layers, named after the modules.
// Every workload reports each of them on a traced run; a layer the
// workload never enters reports 0.
var perLayerMetrics = []metricDef{
	{"dataset.generate_ms", "ms"},
	{"dataset.lite_ms", "ms"},
	{"hin.graph_load_ms", "ms"},
	{"hin.csr_build_ms", "ms"},
	{"hin.row_walk_ns_per_edge", "ns"},
	{"hin.overlay_build_us", "us"},
	{"ppr.forward_cold_ms", "ms"},
	{"ppr.forward_cold_pushes", "count"},
	{"ppr.forward_cold_alloc_kb", "KiB"},
	{"ppr.reverse_cold_ms", "ms"},
	{"ppr.reverse_cold_pushes", "count"},
	{"ppr.forward_warm_ms", "ms"},
	{"ppr.runs_per_op", "count"},
	{"ppr.pushes_per_op", "count"},
	{"pprcache.hit_ns", "ns"},
	{"pprcache.fill_overhead_us", "us"},
	{"pprcache.hit_ratio", "ratio"},
	{"pprcache.resident_mb", "MiB"},
	{"pprcache.evictions", "count"},
	{"rec.topn_hot_us", "us"},
	{"rec.topn_cold_ms", "ms"},
	{"rec.rankof_hot_us", "us"},
	{"emigre.check_cold_ms", "ms"},
	{"emigre.explain_ms.remove_incremental", "ms"},
	{"emigre.explain_ms.remove_powerset", "ms"},
	{"emigre.explain_ms.remove_exhaustive", "ms"},
	{"emigre.explain_ms.add_incremental", "ms"},
	{"emigre.explain_ms.add_powerset", "ms"},
	{"emigre.explain_ms.add_exhaustive", "ms"},
	{"emigre.checks_per_explain", "count"},
	{"emigre.check_pass_ratio", "ratio"},
	{"emigre.explanation_size_mean", "edges"},
	{"emigre.model_residual_ratio", "ratio"},
	{"server.handler_tax_us", "us"},
	{"server.rejections", "count"},
	{"server.degraded_responses", "count"},
	{"client.roundtrip_tax_us", "us"},
	{"client.retries_per_op", "count"},
	{"router.hop_tax_us", "us"},
	{"router.hedge_ratio", "ratio"},
	{"router.hedge_win_ratio", "ratio"},
	{"router.failovers", "count"},
	{"router.rejections", "count"},
	{"load.late_p95_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

// collect assembles a report's contract metrics: one value per entry
// of defs, in table order. A value missing, or one the table does not
// name, is a bug in the harness and fails the run.
func collect(defs []metricDef, values map[string]metric) ([]metric, error) {
	out := make([]metric, 0, len(defs))
	for _, d := range defs {
		m, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		m.name, m.unit = d.name, d.unit
		out = append(out, m)
	}
	for name := range values {
		if !slices.ContainsFunc(defs, func(d metricDef) bool { return d.name == name }) {
			return nil, fmt.Errorf("metric %s is not part of the contract", name)
		}
	}
	return out, nil
}
