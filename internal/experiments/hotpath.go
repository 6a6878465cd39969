package experiments

import (
	"fmt"
	"testing"

	"pgasemb/internal/cache"
	"pgasemb/internal/dlrm"
	"pgasemb/internal/retrieval"
	"pgasemb/internal/serve"
	"pgasemb/internal/sim"
	"pgasemb/internal/sparse"
	"pgasemb/internal/workload"
)

// hotPathConfig mirrors the internal/retrieval benchmark configuration: a
// timing-only mid-scale batch, big enough that the per-batch arenas matter.
func hotPathConfig() retrieval.Config {
	return retrieval.Config{
		GPUs:            4,
		TotalTables:     16,
		Rows:            4096,
		Dim:             64,
		BatchSize:       1024,
		MinPooling:      1,
		MaxPooling:      8,
		Batches:         1,
		Seed:            2024,
		ChunksPerKernel: 4,
		Distribution:    workload.Zipf,
		ZipfExponent:    1.2,
	}
}

// hotPathCase is one tracked per-batch hot path: a configuration, the
// machine it runs on, and the backend under measurement. planOnly cases
// measure route-plan compilation alone (no backend runs).
type hotPathCase struct {
	name     string
	cfg      retrieval.Config
	hw       retrieval.HardwareParams
	backend  retrieval.Backend
	planOnly bool
	// prime runs against the fresh system before the timer starts — the
	// placement cases use it to install a mirror set, so the measured loop is
	// the steady state AFTER the first rebalance, not the cold start.
	prime func(*retrieval.System) error
}

// primePlacement observes two batches, asks the system's controller for one
// rebalance decision, and re-attaches it so the plan swap and mirror set are
// live — all through the public serving-layer hooks.
func primePlacement(sys *retrieval.System) error {
	for i := 0; i < 2; i++ {
		if _, err := sys.NextBatchData(); err != nil {
			return err
		}
	}
	ctl := sys.Placement()
	if _, err := ctl.Rebalance(); err != nil {
		return err
	}
	sys.AttachPlacement(ctl)
	return nil
}

// hotPathCases enumerates the per-batch hot paths tracked in bench.json.
func hotPathCases() []hotPathCase {
	hw := retrieval.DefaultHardware()
	base := hotPathConfig()
	dedup := base
	dedup.Dedup = true
	cached := base
	cached.CacheFraction = 0.0001
	replicated := base
	replicated.Replicas = 2
	pipelined := base
	pipelined.PipelineDepth = 2
	dedupCached := dedup
	dedupCached.CacheFraction = 0.0001
	fp16 := base
	fp16.WirePrecision = retrieval.FP16
	int8 := base
	int8.WirePrecision = retrieval.Int8
	placed := base
	placed.AdaptivePlacement = true
	placed.RebalanceEvery = 8
	placedMirror := placed
	placedMirror.HotTables = 2
	pool := make([]int, placedMirror.TotalTables)
	for f := range pool {
		pool[f] = placedMirror.MaxPooling
	}
	pool[0], pool[1] = 64, 64 // two dominant tables: the mirror set
	placedMirror.PerFeatureMaxPooling = pool
	placedMirrorCached := placedMirror
	placedMirrorCached.CacheFraction = 0.0001
	cluster := retrieval.ClusterHardware(2)
	taxed := cluster
	taxed.Link.HeaderBytes = 1 << 20
	return []hotPathCase{
		{name: "retrieval/baseline-batch", cfg: base, hw: hw, backend: &retrieval.Baseline{}},
		{name: "retrieval/baseline-batch-dedup", cfg: dedup, hw: hw, backend: &retrieval.Baseline{}},
		{name: "retrieval/pgas-fused-batch", cfg: base, hw: hw, backend: &retrieval.PGASFused{}},
		{name: "retrieval/pgas-fused-batch-dedup", cfg: dedup, hw: hw, backend: &retrieval.PGASFused{}},
		{name: "retrieval/pgas-fused-batch-cached", cfg: cached, hw: hw, backend: &retrieval.PGASFused{}},
		{name: "retrieval/pgas-fused-batch-replicas2", cfg: replicated, hw: hw, backend: &retrieval.PGASFused{}},
		{name: "retrieval/pgas-fused-batch-pipelined2", cfg: pipelined, hw: hw, backend: &retrieval.PGASFused{}},
		{name: "retrieval/hybrid-batch", cfg: base, hw: hw, backend: &retrieval.Hybrid{}},
		// A header tax past the crossover sends the 2-node cluster's
		// intra-node pairs through the all-to-all while cross-node pairs
		// keep storing: the hybrid walk with both transports in one batch.
		{name: "retrieval/hybrid-batch-mixed", cfg: base, hw: taxed, backend: &retrieval.Hybrid{}},
		// Reduced wire precision: the same batch with the transport codec's
		// vector counting and encode/decode kernel charges on the loop.
		{name: "retrieval/pgas-fused-batch-fp16", cfg: fp16, hw: hw, backend: &retrieval.PGASFused{}},
		{name: "retrieval/pgas-fused-batch-int8", cfg: int8, hw: hw, backend: &retrieval.PGASFused{}},
		// Adaptive placement: the same batch with the statistics collector on
		// the compile pass, and with a live mirror set serving hot tables
		// through the CacheView skip path.
		{name: "retrieval/pgas-fused-batch-placement", cfg: placed, hw: hw, backend: &retrieval.PGASFused{}},
		{name: "retrieval/pgas-fused-batch-placement-mirror", cfg: placedMirror, hw: hw,
			backend: &retrieval.PGASFused{}, prime: primePlacement},
		// Multi-node: the same batch on a 2-node cluster, so the proxy
		// staging and NIC launch paths are on the measured loop.
		{name: "retrieval/multinode-baseline-batch", cfg: base, hw: cluster, backend: &retrieval.Baseline{}},
		{name: "retrieval/multinode-pgas-batch-dedup", cfg: dedup, hw: cluster, backend: &retrieval.PGASFused{}},
		// Route-plan compilation alone: the shared classification +
		// plan-build step every backend's RunBatch starts from, across the
		// layers that change its shape (dedup, residency, cluster boundaries).
		{name: "retrieval/plan-compile", cfg: base, hw: hw, planOnly: true},
		{name: "retrieval/plan-compile-dedup", cfg: dedup, hw: hw, planOnly: true},
		{name: "retrieval/plan-compile-dedup-cached", cfg: dedupCached, hw: hw, planOnly: true},
		{name: "retrieval/plan-compile-placement-mirror", cfg: placedMirror, hw: hw,
			planOnly: true, prime: primePlacement},
		// The residency pass with every tier live: mirrored tables skip the
		// cache, the rest probe and admit it.
		{name: "retrieval/plan-compile-placement-mirror-cached", cfg: placedMirrorCached, hw: hw,
			planOnly: true, prime: primePlacement},
		{name: "retrieval/multinode-plan-compile-dedup", cfg: dedup, hw: cluster, planOnly: true},
	}
}

// RunHotPaths measures the per-batch retrieval hot paths, input generation
// and model construction, the hot-row cache's probe loop and a short serving
// run with testing.Benchmark, recording each as a HotPathBenchmark on b.
// Each retrieval measurement drives retrieval.BenchLoop — batch generation
// and classification sit outside the measured loop, so ns/op and allocs/op
// describe exactly the steady-state RunBatch path.
func RunHotPaths(b *Bench) error {
	hw := retrieval.DefaultHardware()
	var firstErr error
	for _, c := range hotPathCases() {
		c := c
		r := testing.Benchmark(func(tb *testing.B) {
			sys, err := retrieval.NewSystem(c.cfg, c.hw)
			if err == nil && c.prime != nil {
				err = c.prime(sys)
			}
			if err != nil {
				firstErr = fmt.Errorf("experiments: hot path %s: %w", c.name, err)
				tb.SkipNow()
			}
			loop := func(n int) error { return retrieval.BenchLoop(sys, c.backend, n) }
			if c.planOnly {
				loop = func(n int) error { return retrieval.PlanCompileLoop(sys, n) }
			}
			tb.ReportAllocs()
			tb.ResetTimer()
			if err := loop(tb.N); err != nil {
				firstErr = fmt.Errorf("experiments: hot path %s: %w", c.name, err)
				tb.SkipNow()
			}
		})
		if firstErr != nil {
			return firstErr
		}
		b.NoteHotPath(hotPathResult(c.name, r))
	}

	// Input generation and model construction at the benchmark workloads'
	// shapes: the timing path's pooling draw at infer-weak4's, the draw into
	// one reused batch that compile-driven timing runs take at
	// infer-cluster16's (primed once, so the loop sees the steady state),
	// and the shape-only model infer-weak4 builds.
	weak := retrieval.WeakScalingConfig(4)
	weakGen, err := workload.NewGenerator(weak.WorkloadConfig())
	if err != nil {
		return fmt.Errorf("experiments: hot path workload/next-summary-weak4: %w", err)
	}
	clusterGen, err := workload.NewGenerator(retrieval.MultiNodeConfig(4, 4).WorkloadConfig())
	if err != nil {
		return fmt.Errorf("experiments: hot path workload/next-batch-into-cluster16: %w", err)
	}
	var batch sparse.Batch
	clusterGen.NextBatchInto(&batch)
	modelCfg := dlrm.DefaultModelConfig(weak.TotalTables, weak.Dim)
	for _, c := range []struct {
		name string
		op   func() error
	}{
		{"workload/next-summary-weak4", func() error { weakGen.NextSummary(); return nil }},
		{"workload/next-batch-into-cluster16", func() error { clusterGen.NextBatchInto(&batch); return nil }},
		{"dlrm/new-model-weak4", func() error { _, err := dlrm.NewModel(modelCfg, weak.Seed); return err }},
	} {
		r := testing.Benchmark(func(tb *testing.B) {
			tb.ReportAllocs()
			for i := 0; i < tb.N; i++ {
				if err := c.op(); err != nil {
					firstErr = fmt.Errorf("experiments: hot path %s: %w", c.name, err)
					tb.SkipNow()
				}
			}
		})
		if firstErr != nil {
			return firstErr
		}
		b.NoteHotPath(hotPathResult(c.name, r))
	}

	// The hot-row cache on its own: serving-pattern probes over a Zipf
	// stream of serve-zipf's shape (the remote tables of a 4-GPU
	// ServingScaleConfig, 1% of HBM as cache), at that capacity — where the
	// stream fits and the steady state is resident probes — and at an
	// eviction-heavy 4096 slots. A warm pass sizes the index first.
	serving := retrieval.ServingScaleConfig(4)
	serving.CacheFraction = 0.01
	keys := cache.ZipfKeys(1<<21, serving.TotalTables-serving.TotalTables/serving.GPUs,
		serving.Rows, serving.ZipfExponent, serving.Seed)
	for _, c := range []struct {
		name  string
		slots int
	}{
		{"cache/touch-admit", serving.CacheSlots(hw.GPU)},
		{"cache/touch-admit-evict", 4096},
	} {
		hot := cache.New(c.slots, serving.Dim, false)
		cache.TouchAdmitLoop(hot, keys, len(keys))
		r := testing.Benchmark(func(tb *testing.B) {
			tb.ReportAllocs()
			cache.TouchAdmitLoop(hot, keys, tb.N)
		})
		b.NoteHotPath(hotPathResult(c.name, r))
	}

	// One end-to-end serving measurement: arrivals, batching and dispatch
	// over a short window, dedup enabled so the counter path is exercised.
	scfg := hotPathConfig()
	scfg.GPUs = 2
	scfg.TotalTables = 8
	scfg.Dedup = true
	srv, err := serve.NewServer(scfg, hw, &retrieval.PGASFused{}, serve.Config{
		Rate:     8000,
		Duration: 20 * sim.Millisecond,
	})
	if err != nil {
		return fmt.Errorf("experiments: hot path serve/dispatch: %w", err)
	}
	r := testing.Benchmark(func(tb *testing.B) {
		tb.ReportAllocs()
		for i := 0; i < tb.N; i++ {
			if _, err := srv.Run(); err != nil {
				firstErr = fmt.Errorf("experiments: hot path serve/dispatch: %w", err)
				tb.SkipNow()
			}
		}
	})
	if firstErr != nil {
		return firstErr
	}
	b.NoteHotPath(hotPathResult("serve/dispatch-20ms-dedup", r))
	return nil
}

// hotPathResult converts one testing.Benchmark measurement into its
// bench.json record.
func hotPathResult(name string, r testing.BenchmarkResult) HotPathBenchmark {
	return HotPathBenchmark{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}
