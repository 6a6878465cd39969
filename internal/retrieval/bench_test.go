package retrieval

import (
	"runtime"
	"testing"

	"pgasemb/internal/workload"
)

// benchConfig is a timing-only mid-scale configuration: big enough that the
// per-batch arenas matter, small enough that one batch is microseconds of
// host time.
func benchConfig() Config {
	return Config{
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

func benchRun(b *testing.B, cfg Config, backend Backend) {
	benchRunHW(b, cfg, DefaultHardware(), backend)
}

func benchRunHW(b *testing.B, cfg Config, hw HardwareParams, backend Backend) {
	b.Helper()
	sys, err := NewSystem(cfg, hw)
	if err != nil {
		b.Fatal(err)
	}
	benchSystem(b, sys, backend)
}

// benchSystem measures backend's steady-state RunBatch on sys, so that
// allocs/op counts the batches alone, whatever b.N. A one-batch loop before
// the timer grows the system's arenas, and the timer restarts from an event
// queued ahead of BenchLoop's own, which runs first when the loop starts the
// environment, after its batches are drawn and classified.
func benchSystem(b *testing.B, sys *System, backend Backend) {
	b.Helper()
	if err := BenchLoop(sys, backend, 1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	sys.Env.After(0, b.ResetTimer)
	if err := BenchLoop(sys, backend, b.N); err != nil {
		b.Fatal(err)
	}
}

// benchPlacementConfig is benchConfig under adaptive placement, rebalancing
// every 8 batches.
func benchPlacementConfig() Config {
	cfg := benchConfig()
	cfg.AdaptivePlacement = true
	cfg.RebalanceEvery = 8
	return cfg
}

// benchMirrorConfig is benchPlacementConfig with two hot-table mirrors and
// two dominant tables (pooling up to 64) for them to hold.
func benchMirrorConfig() Config {
	cfg := benchPlacementConfig()
	cfg.HotTables = 2
	cfg.PerFeatureMaxPooling = SkewedPooling(cfg.TotalTables, 2.0/16, 64, cfg.MaxPooling)
	return cfg
}

// primeMirrors observes two batches on sys and forces one rebalance, so the
// steady state measured next is "after the first epoch", when every batch
// carries a hot-mirror view. It fails if the rebalance installed no mirror,
// which would leave the mirror path unmeasured.
func primeMirrors(tb testing.TB, sys *System) {
	tb.Helper()
	for i := 0; i < 2; i++ {
		if _, err := sys.NextBatchData(); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := sys.rebalanceNow(); err != nil {
		tb.Fatal(err)
	}
	if !sys.hotMirrorActive() {
		tb.Fatal("rebalance installed no mirror; the mirror path would go unmeasured")
	}
}

func BenchmarkBaselineBatch(b *testing.B) {
	benchRun(b, benchConfig(), &Baseline{})
}

func BenchmarkBaselineBatchDedup(b *testing.B) {
	cfg := benchConfig()
	cfg.Dedup = true
	benchRun(b, cfg, &Baseline{})
}

func BenchmarkPGASFusedBatch(b *testing.B) {
	benchRun(b, benchConfig(), &PGASFused{})
}

func BenchmarkPGASFusedBatchDedup(b *testing.B) {
	cfg := benchConfig()
	cfg.Dedup = true
	benchRun(b, cfg, &PGASFused{})
}

// Reduced-wire-precision variants: the codec's per-transfer accounting (vector
// counts, encode/decode kernel charges) must ride the same warm arenas.
func BenchmarkPGASFusedBatchFP16(b *testing.B) {
	cfg := benchConfig()
	cfg.WirePrecision = FP16
	benchRun(b, cfg, &PGASFused{})
}

func BenchmarkPGASFusedBatchInt8(b *testing.B) {
	cfg := benchConfig()
	cfg.WirePrecision = Int8
	benchRun(b, cfg, &PGASFused{})
}

func BenchmarkPGASFusedBatchCached(b *testing.B) {
	cfg := benchConfig()
	cfg.CacheFraction = 0.0001
	benchRun(b, cfg, &PGASFused{})
}

func BenchmarkPGASFusedBatchReplicated(b *testing.B) {
	cfg := benchConfig()
	cfg.Replicas = 2
	benchRun(b, cfg, &PGASFused{})
}

// Adaptive placement: the statistics collector on the compile pass, and a
// live mirror set serving hot tables through the plan's hit-skipping path.
func BenchmarkPGASFusedBatchPlacement(b *testing.B) {
	benchRun(b, benchPlacementConfig(), &PGASFused{})
}

func BenchmarkPGASFusedBatchPlacementMirror(b *testing.B) {
	sys, err := NewSystem(benchMirrorConfig(), DefaultHardware())
	if err != nil {
		b.Fatal(err)
	}
	primeMirrors(b, sys)
	benchSystem(b, sys, &PGASFused{})
}

func BenchmarkBaselineBatchReplicated(b *testing.B) {
	cfg := benchConfig()
	cfg.Replicas = 2
	benchRun(b, cfg, &Baseline{})
}

// BenchmarkFunctionalPGASBatch measures the functional-mode hot path — the
// real tensor movement the arenas were built for.
func BenchmarkFunctionalPGASBatch(b *testing.B) {
	cfg := benchConfig()
	cfg.Rows = 512
	cfg.BatchSize = 256
	cfg.Functional = true
	cfg.Dedup = true
	benchRun(b, cfg, &PGASFused{})
}

// Multi-node variants: the same mid-scale batch on a 2-node cluster, so the
// proxy staging, NIC serialization and node-dedup paths are all on the
// measured loop.
func BenchmarkMultiNodeBaselineBatch(b *testing.B) {
	benchRunHW(b, benchConfig(), ClusterHardware(2), &Baseline{})
}

func BenchmarkMultiNodePGASBatch(b *testing.B) {
	benchRunHW(b, benchConfig(), ClusterHardware(2), &PGASFused{})
}

func BenchmarkMultiNodePGASBatchDedup(b *testing.B) {
	cfg := benchConfig()
	cfg.Dedup = true
	benchRunHW(b, cfg, ClusterHardware(2), &PGASFused{})
}

// planCompileCases are BenchmarkRoutePlanCompile's classifier variants:
// plain, dedup key sets, hot-row cache residency, both combined, node-level
// dedup on a 2-node cluster, a live mirror set whose tables skip the
// residency pass, alone and beside a cache the other tables probe and admit,
// and replicated shards, whose compile writes the serve column. The
// cluster-dedup shape also runs at 16, 32 and 64 GPUs (4 per node, 4 tables
// per GPU), where route pricing's O(GPUs²) pass grows against the walk.
var planCompileCases = []struct {
	name     string
	dedup    bool
	cached   bool
	cluster  bool
	mirror   bool
	replicas int
	gpus     int // 0: benchConfig's
}{
	{"plain", false, false, false, false, 0, 0},
	{"dedup", true, false, false, false, 0, 0},
	{"cache", false, true, false, false, 0, 0},
	{"dedup-cache", true, true, false, false, 0, 0},
	{"cluster-dedup", true, false, true, false, 0, 0},
	{"cluster-dedup/gpus=16", true, false, true, false, 0, 16},
	{"cluster-dedup/gpus=32", true, false, true, false, 0, 32},
	{"cluster-dedup/gpus=64", true, false, true, false, 0, 64},
	{"placement-mirror", false, false, false, true, 0, 0},
	{"placement-mirror-cache", false, true, false, true, 0, 0},
	{"replicas", false, false, false, false, 2, 0},
}

// planCompileSystem builds planCompileCases[i]'s system and draws its one
// batch, which PlanCompileLoop's loop compiles over and over, and compiles
// it once: a draw allocates per table, so at 64 GPUs, where a quarter second
// runs a few compiles, drawing inside a timed loop would move allocs/op with
// the iteration count, and the first compile sizes the run's plan.
func planCompileSystem(tb testing.TB, i int) (*System, *BatchData) {
	tb.Helper()
	c := planCompileCases[i]
	cfg := benchConfig()
	if c.mirror {
		cfg = benchMirrorConfig()
	}
	cfg.Dedup = c.dedup
	if c.cached {
		cfg.CacheFraction = 0.0001
	}
	cfg.Replicas = c.replicas
	hw := DefaultHardware()
	if c.cluster {
		hw = ClusterHardware(2)
	}
	if c.gpus > 0 {
		cfg.GPUs, cfg.TotalTables = c.gpus, 4*c.gpus
		hw = ClusterHardware(c.gpus / 4)
	}
	sys, err := NewSystem(cfg, hw)
	if err != nil {
		tb.Fatal(err)
	}
	if c.mirror {
		primeMirrors(tb, sys)
	}
	sys.drawPooling()
	bd := &BatchData{Sparse: sys.drawBatch()}
	sys.compileRoutePlan(bd)
	return sys, bd
}

// BenchmarkRoutePlanCompile measures the host-side route-plan compiler
// across planCompileCases, in PlanCompileLoop's loop.
func BenchmarkRoutePlanCompile(b *testing.B) {
	for i, c := range planCompileCases {
		b.Run(c.name, func(b *testing.B) {
			sys, bd := planCompileSystem(b, i)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys.compileRoutePlan(bd)
			}
		})
	}
}

// TestRoutePlanCompileSteadyStateZeroAllocs pins the per-run plan's
// allocation contract in every BenchmarkRoutePlanCompile case: once the
// run's first compile has sized the plan, a compile allocates nothing.
func TestRoutePlanCompileSteadyStateZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation-counting test")
	}
	for i, c := range planCompileCases {
		t.Run(c.name, func(t *testing.T) {
			sys, bd := planCompileSystem(t, i)
			if allocs := testing.AllocsPerRun(2, func() { sys.compileRoutePlan(bd) }); allocs != 0 {
				t.Errorf("%s: a steady-state compile allocates %v times (want 0)", c.name, allocs)
			}
		})
	}
}

// BenchmarkNextBatchData measures one timing-mode NextBatchData at two
// benchmark workloads' shapes: at infer-weak4's, the pooling draw plus the
// route plan's prefix sums; at infer-cluster16's, each feature's bags drawn
// and run through the dedup walk as they are drawn. A draw before the timer
// sizes the reused buffers.
func BenchmarkNextBatchData(b *testing.B) {
	for _, c := range []struct {
		name string
		cfg  Config
		hw   HardwareParams
	}{
		{"infer-weak4", WeakScalingConfig(4), DefaultHardware()},
		{"infer-cluster16", MultiNodeConfig(4, 4), ClusterHardware(4)},
	} {
		b.Run("shape="+c.name, func(b *testing.B) {
			sys, err := NewSystem(c.cfg, c.hw)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sys.NextBatchData(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.NextBatchData(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// steadyStateMallocs returns the heap allocations BenchLoop makes for k
// batches beyond its warm-up: the difference between twin systems driven for
// warm+k and warm batches, where warm is one batch. Input
// generation, plan compilation and arena warm-up are identical in both runs
// and cancel, so any remainder is a real per-batch allocation. The runtime's
// own per-P caches (channel waiters, goroutines) refill unpredictably when
// simulated processes migrate between Ps or a GC empties them, so the count
// runs on one P and takes the minimum over a few fresh systems.
func steadyStateMallocs(t *testing.T, cfg Config, hw HardwareParams, b Backend, k int) int64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const warm = 1
	run := func(n int) int64 {
		best := int64(-1)
		for rep := 0; rep < 3; rep++ {
			sys, err := NewSystem(cfg, hw)
			if err != nil {
				t.Fatal(err)
			}
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := BenchLoop(sys, b, n); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if m := int64(after.Mallocs - before.Mallocs); best < 0 || m < best {
				best = m
			}
		}
		return best
	}
	return run(warm+k) - run(warm)
}

// TestMultiNodeSteadyStateZeroAllocs pins the steady-state allocation
// contract for the cluster hot paths: once a batch is classified and the
// arenas are warm, driving batches through the proxy/staging machinery —
// timer re-arming, per-node staging buffers, NIC message launches — must not
// allocate at all.
func TestMultiNodeSteadyStateZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation-counting test")
	}
	cluster := ClusterHardware(2)
	cases := []struct {
		name       string
		dedup      bool
		cached     bool
		replicas   int
		depth      int
		prec       Precision
		backend    Backend
		functional bool
	}{
		{"pgas-fused", false, false, 0, 1, FP32, &PGASFused{}, false},
		{"pgas-fused-dedup", true, false, 0, 1, FP32, &PGASFused{}, false},
		{"pgas-fused-replicas2", false, false, 2, 1, FP32, &PGASFused{}, false},
		{"baseline", false, false, 0, 1, FP32, &Baseline{}, false},
		{"baseline-replicas2", false, false, 2, 1, FP32, &Baseline{}, false},
		// Replicas beside the hot-row cache: one set of hit prefixes, read by
		// shard, in both served-pair walks.
		{"pgas-fused-replicas2-cached", false, true, 2, 1, FP32, &PGASFused{}, false},
		{"baseline-replicas2-cached", false, true, 2, 1, FP32, &Baseline{}, false},
		// Depth-2 variants: the exchange runs in lockstep at any depth, so a
		// deeper pipeline must hold the same zero-alloc contract.
		{"pgas-fused-depth2", false, false, 0, 2, FP32, &PGASFused{}, false},
		{"pgas-fused-dedup-depth2", true, false, 0, 2, FP32, &PGASFused{}, false},
		{"baseline-depth2", false, false, 0, 2, FP32, &Baseline{}, false},
		// Reduced-wire-precision variants: codec vector counting and the
		// encode/decode kernel charges must not allocate either.
		{"pgas-fused-batch-fp16", false, false, 0, 1, FP16, &PGASFused{}, false},
		{"pgas-fused-batch-int8", false, false, 0, 1, Int8, &PGASFused{}, false},
		{"baseline-fp16", false, false, 0, 1, FP16, &Baseline{}, false},
		// Functional runs: the walks log every transfer and the executor
		// replays the log, both into storage reused batch after batch.
		{"pgas-fused-dedup-functional", true, false, 0, 1, FP32, &PGASFused{}, true},
		{"baseline-dedup-functional", true, false, 0, 1, FP32, &Baseline{}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := benchConfig()
			cfg.Dedup = c.dedup
			if c.cached {
				cfg.CacheFraction = 1e-8
			}
			cfg.Replicas = c.replicas
			cfg.PipelineDepth = c.depth
			cfg.WirePrecision = c.prec
			cfg.Functional = c.functional
			if allocs := steadyStateMallocs(t, cfg, cluster, c.backend, 16); allocs != 0 {
				t.Errorf("multi-node %s steady state allocates %d times over 16 batches (want 0)", c.name, allocs)
			}
		})
	}
}
