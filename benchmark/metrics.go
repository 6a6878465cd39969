package main

import (
	"math"

	"pgasemb/internal/metrics"
)

// metricDef names one reported metric and its unit. BENCHMARK.json declares
// the same lists; a test keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a run prints with tracing off, on every workload.
var endToEnd = []metricDef{
	{"sim_ms", "ms"},
	{"host_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics a traced run prints, on every workload; a layer
// the workload bypasses reads 0. Simulated ones repeat exactly for a seed;
// the host-time ones come from the run's spans (hostMetrics).
var perLayer = []metricDef{
	// Simulated, per batch of the accelerated backend unless noted.
	{"retrieval.emb_ms", "ms"},
	{"retrieval.fused_kernel_ms", "ms"},
	{"retrieval.sync_unpack_ms", "ms"},
	{"retrieval.emb_speedup", "x"},
	{"paper_err_pct", "%"},
	{"baseline.emb_ms", "ms"},
	{"baseline.computation_ms", "ms"},
	{"baseline.communication_ms", "ms"},
	{"baseline.sync_unpack_ms", "ms"},
	{"collective.mb_per_batch", "MB"},
	{"dlrm.dense_ms", "ms"},
	{"dlrm.emb_stall_ms", "ms"},
	{"sim.events_per_batch", "count"},
	{"nvlink.mb_per_batch", "MB"},
	{"nvlink.transfers_per_batch", "count"},
	{"nvlink.pair_imbalance", "ratio"},
	{"pgas.puts_per_batch", "count"},
	{"pgas.wire_efficiency", "ratio"},
	{"fabric.nic_messages_per_batch", "count"},
	{"fabric.nic_wire_mb_per_batch", "MB"},
	{"fabric.nic_efficiency", "ratio"},
	{"dedup.unique_frac", "ratio"},
	{"dedup.wire_saved_mb", "MB"},
	{"cache.hit_rate", "ratio"},
	{"cache.insertions", "count"},
	{"cache.evictions", "count"},
	{"serve.requests", "count"},
	{"serve.dispatches", "count"},
	{"serve.mean_batch", "count"},
	{"serve.padded_frac", "ratio"},
	{"serve.p50_ms", "ms"},
	{"serve.p99_ms", "ms"},
	{"serve.max_rate_rps", "rps"},
	{"placement.imbalance", "ratio"},
	{"placement.migrated_mb", "MB"},
	{"placement.rebalances", "count"},
	// Host time, from the spans of a traced run.
	{"setup.spec_s", "s"},
	{"setup.model_s", "s"},
	{"setup.server_s", "s"},
	{"workload.gen_ms", "ms"},
	{"retrieval.plan_compile_ms", "ms"},
	{"retrieval.plan_compile_allocs", "count"},
	{"retrieval.batch_ms", "ms"},
	{"retrieval.batch_allocs", "count"},
	{"sim.host_us_per_event", "us"},
	{"serve.dispatch_ms", "ms"},
	{"serve.run_setup_ms", "ms"},
	{"serve.run_setup_allocs", "count"},
	{"trace.overhead_pct", "%"},
}

// simMetrics are one pass's simulated metrics: sim_ms and the simulated
// per-layer metrics, keyed by name.
type simMetrics map[string]float64

// newSimMetrics returns every simulated per-layer metric a pass computes at
// 0, so a layer the workload bypasses still reports. The host-time metrics
// and the serving rate search come from the traced run's probes instead.
func newSimMetrics() simMetrics {
	m := simMetrics{}
	for _, d := range perLayer {
		m[d.name] = 0
	}
	for name := range hostMetrics(nil) {
		delete(m, name)
	}
	delete(m, "serve.max_rate_rps")
	return m
}

// equal reports whether two passes produced identical simulated metrics.
func (m simMetrics) equal(o simMetrics) bool {
	if len(m) != len(o) {
		return false
	}
	for k, v := range m {
		w, ok := o[k]
		if !ok || (v != w && !(math.IsNaN(v) && math.IsNaN(w))) {
			return false
		}
	}
	return true
}

// latencyPercentile returns the p-th percentile (nearest rank) of request
// latencies with every refused request counted as +Inf, so refusals can only
// push a tail up and a tail that reaches them reads +Inf.
func latencyPercentile(completed []float64, refused int, p float64) float64 {
	xs := make([]float64, len(completed), len(completed)+refused)
	copy(xs, completed)
	for i := 0; i < refused; i++ {
		xs = append(xs, math.Inf(1))
	}
	return metrics.Percentile(xs, p)
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
