package pgasemb

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (run with `go test -bench=. -benchmem`):
//
//	BenchmarkTable1WeakScalingSpeedup   — Table 1 (weak-scaling speedups)
//	BenchmarkTable2StrongScalingSpeedup — Table 2 (strong-scaling speedups)
//	BenchmarkFig5WeakScalingFactor      — Figure 5 curves
//	BenchmarkFig6WeakBreakdown          — Figure 6 component bars
//	BenchmarkFig8StrongScalingFactor    — Figure 8 curves
//	BenchmarkFig9StrongBreakdown        — Figure 9 component bars
//	BenchmarkFig7CommVolume2GPU         — Figure 7 volume-over-time
//	BenchmarkFig10CommVolume4GPU        — Figure 10 volume-over-time
//
// plus the ablation/extension benches (A1-A3). Custom metrics carry the
// reproduced numbers: e.g. speedup_2gpu / speedup_3gpu / speedup_4gpu and
// geomean_speedup correspond directly to the paper's table cells. Each
// benchmark iteration simulates a fixed number of inference batches;
// sim_ms_per_batch reports the simulated per-batch runtime.
//
// cmd/report writes the same artifacts as rendered tables and charts into
// results/, at the paper's full 100-batch configuration; these benchmarks
// drive retrieval directly, serially, one run per backend and GPU count.

import (
	"fmt"
	"testing"

	"pgasemb/internal/experiments"
	"pgasemb/internal/retrieval"
)

// benchBatches keeps one benchmark iteration around a second of wall time;
// trends are invariant to batch count (batches are statistically
// identical).
const benchBatches = 5

// run executes one backend on one configuration.
func run(b *testing.B, cfg retrieval.Config, backend retrieval.Backend) *retrieval.Result {
	b.Helper()
	sys, err := retrieval.NewSystem(cfg, retrieval.DefaultHardware())
	if err != nil {
		b.Fatal(err)
	}
	res, err := sys.Run(backend)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// runScaling runs the scaling sweep behind Tables 1-2 and Figures 5-6 and
// 8-9: both backends on 1 to 4 GPUs.
func runScaling(b *testing.B, kind experiments.ScalingKind) *experiments.ScalingResult {
	b.Helper()
	var res *experiments.ScalingResult
	for i := 0; i < b.N; i++ {
		res = &experiments.ScalingResult{Kind: kind}
		for gpus := 1; gpus <= 4; gpus++ {
			cfg := kind.Config(gpus)
			cfg.Batches = benchBatches
			res.Points = append(res.Points, experiments.ScalingPoint{
				GPUs:     gpus,
				Baseline: run(b, cfg, &retrieval.Baseline{}),
				PGAS:     run(b, cfg, &retrieval.PGASFused{}),
			})
		}
	}
	return res
}

func BenchmarkTable1WeakScalingSpeedup(b *testing.B) {
	res := runScaling(b, experiments.WeakScaling)
	for _, gpus := range []int{2, 3, 4} {
		b.ReportMetric(res.Point(gpus).Speedup(), fmt.Sprintf("speedup_%dgpu", gpus))
	}
	b.ReportMetric(res.GeomeanSpeedup(), "geomean_speedup")
}

func BenchmarkTable2StrongScalingSpeedup(b *testing.B) {
	res := runScaling(b, experiments.StrongScaling)
	for _, gpus := range []int{2, 3, 4} {
		b.ReportMetric(res.Point(gpus).Speedup(), fmt.Sprintf("speedup_%dgpu", gpus))
	}
	b.ReportMetric(res.GeomeanSpeedup(), "geomean_speedup")
}

func BenchmarkFig5WeakScalingFactor(b *testing.B) {
	res := runScaling(b, experiments.WeakScaling)
	base := res.Factors(false)
	pgas := res.Factors(true)
	b.ReportMetric(base[1], "baseline_factor_2gpu")
	b.ReportMetric(base[3], "baseline_factor_4gpu")
	b.ReportMetric(pgas[1], "pgas_factor_2gpu")
	b.ReportMetric(pgas[3], "pgas_factor_4gpu")
}

func BenchmarkFig6WeakBreakdown(b *testing.B) {
	res := runScaling(b, experiments.WeakScaling)
	pt := res.Point(2)
	perBatch := 1e3 / float64(benchBatches)
	b.ReportMetric(pt.Baseline.Breakdown.Get(retrieval.CompComputation)*perBatch, "comp_ms_per_batch")
	b.ReportMetric(pt.Baseline.Breakdown.Get(retrieval.CompComm)*perBatch, "comm_ms_per_batch")
	b.ReportMetric(pt.Baseline.Breakdown.Get(retrieval.CompSyncUnpack)*perBatch, "syncunpack_ms_per_batch")
	b.ReportMetric(pt.PGAS.TotalTime*perBatch, "pgas_total_ms_per_batch")
}

func BenchmarkFig8StrongScalingFactor(b *testing.B) {
	res := runScaling(b, experiments.StrongScaling)
	base := res.Factors(false)
	pgas := res.Factors(true)
	b.ReportMetric(base[1], "baseline_factor_2gpu")
	b.ReportMetric(base[3], "baseline_factor_4gpu")
	b.ReportMetric(pgas[1], "pgas_factor_2gpu")
	b.ReportMetric(pgas[3], "pgas_factor_4gpu")
}

func BenchmarkFig9StrongBreakdown(b *testing.B) {
	res := runScaling(b, experiments.StrongScaling)
	pt := res.Point(4)
	perBatch := 1e3 / float64(benchBatches)
	b.ReportMetric(pt.Baseline.Breakdown.Get(retrieval.CompComputation)*perBatch, "comp_ms_per_batch")
	b.ReportMetric(pt.Baseline.Breakdown.Get(retrieval.CompComm)*perBatch, "comm_ms_per_batch")
	b.ReportMetric(pt.Baseline.Breakdown.Get(retrieval.CompSyncUnpack)*perBatch, "syncunpack_ms_per_batch")
	b.ReportMetric(pt.PGAS.TotalTime*perBatch, "pgas_total_ms_per_batch")
}

func benchCommVolume(b *testing.B, kind experiments.ScalingKind, gpus int) {
	b.Helper()
	cfg := kind.Config(gpus)
	cfg.Batches = 2
	var base, pgas *retrieval.Result
	for i := 0; i < b.N; i++ {
		base, pgas = run(b, cfg, &retrieval.Baseline{}), run(b, cfg, &retrieval.PGASFused{})
	}
	// Active fraction of the timeline carrying volume: the paper's
	// smoothness evidence (PGAS near 1, baseline bursty).
	active := func(r *retrieval.Result) float64 {
		series := r.CommTrace.RateSeries(0, r.TotalTime, 100)
		n := 0
		for _, p := range series {
			if p.V > 0 {
				n++
			}
		}
		return float64(n) / float64(len(series))
	}
	b.ReportMetric(active(pgas), "pgas_active_frac")
	b.ReportMetric(active(base), "baseline_active_frac")
}

func BenchmarkFig7CommVolume2GPU(b *testing.B) {
	benchCommVolume(b, experiments.WeakScaling, 2)
}

func BenchmarkFig10CommVolume4GPU(b *testing.B) {
	benchCommVolume(b, experiments.StrongScaling, 4)
}

// runBackend times one backend on one configuration, reporting simulated
// per-batch milliseconds.
func runBackend(b *testing.B, cfg retrieval.Config, backend retrieval.Backend) {
	b.Helper()
	cfg.Batches = benchBatches
	var total float64
	for i := 0; i < b.N; i++ {
		total = run(b, cfg, backend).TotalTime
	}
	b.ReportMetric(total*1e3/benchBatches, "sim_ms_per_batch")
}

func BenchmarkBaselineWeak4GPU(b *testing.B) {
	runBackend(b, retrieval.WeakScalingConfig(4), &retrieval.Baseline{})
}

func BenchmarkPGASFusedWeak4GPU(b *testing.B) {
	runBackend(b, retrieval.WeakScalingConfig(4), &retrieval.PGASFused{})
}

func BenchmarkBaselineStrong4GPU(b *testing.B) {
	runBackend(b, retrieval.StrongScalingConfig(4), &retrieval.Baseline{})
}

func BenchmarkPGASFusedStrong4GPU(b *testing.B) {
	runBackend(b, retrieval.StrongScalingConfig(4), &retrieval.PGASFused{})
}

// Ablation A1: how much of the win is unpack elimination alone?
func BenchmarkAblationUnpackOnly(b *testing.B) {
	runBackend(b, retrieval.WeakScalingConfig(4), &retrieval.Baseline{DirectPlacement: true})
}

// Ablation A2: how much of the win is overlap alone?
func BenchmarkAblationOverlapOnly(b *testing.B) {
	runBackend(b, retrieval.WeakScalingConfig(4), &retrieval.PGASFused{StageRemote: true})
}

// Extension A3: aggregated one-sided stores (future-work §V).
func BenchmarkAggregatedPGASWeak4GPU(b *testing.B) {
	runBackend(b, retrieval.WeakScalingConfig(4), &retrieval.PGASFused{Aggregate: &retrieval.AggregatorConfig{
		FlushBytes: 64 << 10,
		MaxWait:    50e-6,
	}})
}

// Extension A6: Zipf-skewed indices (hot items) versus the paper's uniform
// distribution.
func BenchmarkZipfWorkloadPGAS(b *testing.B) {
	cfg := retrieval.WeakScalingConfig(4)
	cfg.Rows = 1 << 20
	cfg.Distribution = 1 // workload.Zipf
	cfg.ZipfExponent = 1.1
	runBackend(b, cfg, &retrieval.PGASFused{})
}

// Multi-node (future-work §V): direct vs aggregated PGAS across two
// NIC-joined nodes.
func BenchmarkMultiNodeDirectPGAS(b *testing.B) {
	cfg := retrieval.WeakScalingConfig(4)
	cfg.Batches = benchBatches
	var total float64
	for i := 0; i < b.N; i++ {
		sys, err := retrieval.NewSystem(cfg, retrieval.ClusterHardware(2))
		if err != nil {
			b.Fatal(err)
		}
		res, err := sys.Run(&retrieval.PGASFused{})
		if err != nil {
			b.Fatal(err)
		}
		total = res.TotalTime
	}
	b.ReportMetric(total*1e3/benchBatches, "sim_ms_per_batch")
}

func BenchmarkMultiNodeAggregatedPGAS(b *testing.B) {
	cfg := retrieval.WeakScalingConfig(4)
	cfg.Batches = benchBatches
	backend := &retrieval.PGASFused{Aggregate: &retrieval.AggregatorConfig{FlushBytes: 64 << 10, MaxWait: 100e-6}}
	var total float64
	for i := 0; i < b.N; i++ {
		sys, err := retrieval.NewSystem(cfg, retrieval.ClusterHardware(2))
		if err != nil {
			b.Fatal(err)
		}
		res, err := sys.Run(backend)
		if err != nil {
			b.Fatal(err)
		}
		total = res.TotalTime
	}
	b.ReportMetric(total*1e3/benchBatches, "sim_ms_per_batch")
}

// Extension A8: heterogeneous (skewed) features under block vs greedy
// table placement.
func BenchmarkSkewBlockPlan(b *testing.B) {
	cfg := retrieval.WeakScalingConfig(4)
	cfg.PerFeatureMaxPooling = retrieval.SkewedPooling(cfg.TotalTables, 0.125, 256, 16)
	runBackend(b, cfg, &retrieval.PGASFused{})
}

func BenchmarkSkewGreedyPlan(b *testing.B) {
	cfg := retrieval.WeakScalingConfig(4)
	cfg.PerFeatureMaxPooling = retrieval.SkewedPooling(cfg.TotalTables, 0.125, 256, 16)
	cfg.GreedyPlan = true
	runBackend(b, cfg, &retrieval.PGASFused{})
}
