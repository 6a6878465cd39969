package retrieval

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"pgasemb/internal/placement"
	"pgasemb/internal/sim"
	"pgasemb/internal/tensor"
	"pgasemb/internal/trace"
	"pgasemb/internal/workload"
)

// placementGateConfig is the registry gate's adaptive-placement variant of
// clusterTestConfig: graded per-feature pooling — one dominant table, two
// mid-hot tables, flat tail — so the priced controller finds a move that
// pays under every variant, and enough batches for two rebalance
// boundaries. The mirror variants run mirrorGateConfig's shape instead.
func placementGateConfig() Config {
	cfg := clusterTestConfig(4)
	cfg.Batches = 6
	cfg.PerFeatureMaxPooling = []int{12, 8, 8, 3, 3, 3}
	return cfg
}

// mirrorGateConfig is placementGateConfig with a more dominant hottest table
// and a larger batch, so that under adaptive placement every 2 batches with
// a one-table mirror budget, mirroring that table pays for its install, with
// and without dedup, and the controller mirrors it at the first epoch.
func mirrorGateConfig() Config {
	cfg := placementGateConfig()
	cfg.PerFeatureMaxPooling = []int{32, 8, 8, 3, 3, 3}
	cfg.BatchSize = 512
	return cfg
}

// registryPlacementGate extends the bit-exactness gate with adaptive
// placement: for every backend and machine, (a) a functional adaptive run's
// outputs must equal BOTH the serial reference and a placement-off run's
// outputs batch-for-batch (rebalancing relocates tables, it never changes
// data), and (b) a timing-only adaptive run must land on the functional run's
// simulated time — including the migration traffic charged between epochs.
// The third variant layers index deduplication on top: mirror hits must never
// enter the dedup key sets, and swaps must stay bit-exact under both. The
// cache variants add the hot-row cache, which must keep real hits across
// swaps and beside mirrors.
func registryPlacementGate(t *testing.T, name, machine string, hw HardwareParams) {
	run := func(t *testing.T, functional, adaptive, dedup, cached bool, hot int, prec Precision) (*Result, *System) {
		t.Helper()
		cfg := placementGateConfig()
		if hot > 0 {
			cfg = mirrorGateConfig()
		}
		cfg.Functional = functional
		cfg.Dedup = dedup
		cfg.WirePrecision = prec
		if cached {
			cfg.CacheFraction = 1e-8
		}
		if adaptive {
			cfg.AdaptivePlacement = true
			cfg.RebalanceEvery = 2
			cfg.HotTables = hot
		}
		s, err := NewSystem(cfg, hw)
		if err != nil {
			t.Fatal(err)
		}
		be, err := NewBackendByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(be)
		if err != nil {
			t.Fatal(err)
		}
		if functional {
			want := mustReference(t, s, res.LastBatch)
			for g := range want {
				if !tensor.Equal(res.Final[g], want[g]) {
					t.Fatalf("GPU %d differs from reference (max diff %g)",
						g, tensor.MaxAbsDiff(res.Final[g], want[g]))
				}
			}
		}
		return res, s
	}
	for _, v := range []struct {
		label string
		hot   int
		dedup bool
		cache bool
		prec  Precision
	}{
		{"rebalance", 0, false, false, FP32},
		{"rebalance+mirror", 1, false, false, FP32},
		{"rebalance+mirror+dedup", 1, true, false, FP32},
		// Reduced wire precision under swaps and mirrors: rebalancing
		// relocates quantized-at-rest tables, so outputs must stay byte-
		// identical to the codec-applied placement-off run and reference.
		{"rebalance+mirror+dedup+fp16", 1, true, false, FP16},
		{"rebalance+mirror+dedup+int8", 1, true, false, Int8},
		// The hot-row cache under swaps and mirrors: cache keys name the
		// (table, row), not the owner, so a swap invalidates nothing, and a
		// mirrored table's vectors never probe the cache.
		{"rebalance+cache", 0, false, true, FP32},
		{"rebalance+mirror+dedup+cache", 1, true, true, FP32},
	} {
		t.Run(fmt.Sprintf("%s/%s+placement-%s", name, machine, v.label), func(t *testing.T) {
			off, _ := run(t, true, false, v.dedup, v.cache, v.hot, v.prec)
			on, sys := run(t, true, true, v.dedup, v.cache, v.hot, v.prec)
			if on.Rebalances == 0 {
				t.Fatal("skewed gate workload triggered no rebalance; the gate is not exercising swaps")
			}
			if v.hot > 0 && !sys.hotMirrorActive() {
				t.Fatal("the controller mirrored no table; the gate is not exercising mirrors")
			}
			if v.cache && sys.Caches.Stats().Hits == 0 {
				t.Fatal("cached gate workload saw no cache hits; the gate is not exercising the cache")
			}
			for g := range on.Final {
				if !tensor.Equal(on.Final[g], off.Final[g]) {
					t.Fatalf("GPU %d: rebalancing changed outputs (max diff %g)",
						g, tensor.MaxAbsDiff(on.Final[g], off.Final[g]))
				}
			}
			tRes, _ := run(t, false, true, v.dedup, v.cache, v.hot, v.prec)
			if math.Abs(on.TotalTime-tRes.TotalTime) > 1e-9 {
				t.Errorf("functional total %g != timing total %g", on.TotalTime, tRes.TotalTime)
			}
			if on.Rebalances != tRes.Rebalances || on.MigratedBytes != tRes.MigratedBytes {
				t.Errorf("placement trajectory diverged across modes: functional %d swaps/%g bytes, timing %d/%g",
					on.Rebalances, on.MigratedBytes, tRes.Rebalances, tRes.MigratedBytes)
			}
		})
	}
}

// placementSkewConfig is the acceptance workload: Zipf(1.2) indices with a
// graded per-feature pooling vector — two dominant tables (mirror-worthy),
// two mid-hot tables (worth moving but not mirroring) and a flat tail. The
// static table-wise plan colocates all four heavy tables on GPU 0.
func placementSkewConfig() Config {
	pool := make([]int, 16)
	for f := range pool {
		pool[f] = 4
	}
	pool[0], pool[1] = 64, 64
	pool[2], pool[3] = 16, 16
	return Config{
		GPUs:                 4,
		TotalTables:          16,
		Rows:                 512,
		Dim:                  16,
		BatchSize:            128,
		MinPooling:           1,
		MaxPooling:           4,
		PerFeatureMaxPooling: pool,
		Batches:              12,
		Seed:                 2024,
		ChunksPerKernel:      4,
		Distribution:         workload.Zipf,
		ZipfExponent:         1.2,
	}
}

// Flights started one after another on one machine rebalance on the
// machine's batch index, and a flight whose batch opens an epoch starts its
// GPUs only once the migration has landed: when the batch's first kernel
// launches, no pipe is still busy with migration traffic.
func TestStartWaitsForMigration(t *testing.T) {
	cfg := placementSkewConfig()
	cfg.Batches = 1
	cfg.AdaptivePlacement = true
	cfg.RebalanceEvery = 3
	cfg.HotTables = 2
	s, err := NewSystem(cfg, DefaultHardware())
	if err != nil {
		t.Fatal(err)
	}
	be, epochs := &PGASFused{}, 0
	s.Env.Go("dispatcher", func(p *sim.Proc) {
		for d := 0; d < 12; d++ {
			_, before := s.Migration()
			handover := sim.NewSignal(s.Env)
			f := s.Start(context.Background(), cfg.Seed+uint64(d), handover, func(p *sim.Proc, g, _ int, bd *BatchData) {
				if _, after := s.Migration(); g == 0 && after > before {
					epochs++
					for a := 0; a < cfg.GPUs; a++ {
						for b := 0; b < cfg.GPUs; b++ {
							if a == b {
								continue
							}
							if busy := s.Fab.Pipe(a, b).BusyUntil(); busy > p.Now() {
								t.Errorf("dispatch %d started at %g, pipe %d->%d busy with migration until %g",
									d, p.Now(), a, b, busy)
							}
						}
					}
				}
				be.RunBatch(s, p, g, bd, &trace.Breakdown{})
				if !handover.Fired() {
					handover.Fire()
				}
			})
			p.WaitSignal(f.Done)
			if err := f.Err(); err != nil {
				t.Error(err)
				return
			}
		}
	})
	s.Env.Run()
	if rebalances, _ := s.Migration(); rebalances == 0 || epochs == 0 {
		t.Fatalf("%d rebalances, %d migrating epochs over 12 flights; the wait goes unchecked", rebalances, epochs)
	}
}

// TestAdaptivePlacementBeatsStatic is the subsystem's acceptance criterion:
// on the skewed workload, adaptive placement must strictly reduce the
// simulated time of the steady-state window versus the static table-wise
// plan, and must be no slower than the analytic greedy planner beyond a 5%
// slack (greedy knows the expected loads a priori, adaptive has to learn
// them). The window is batches 12..24, after the controller has learned the
// skew, isolated by differencing a 24-batch run against a 12-batch run of
// the same seed: the runs are identical up to batch 12, so the difference is
// exactly that window's time, migrations included.
func TestAdaptivePlacementBeatsStatic(t *testing.T) {
	run := func(batches int, mut func(*Config)) *Result {
		t.Helper()
		cfg := placementSkewConfig()
		cfg.Batches = batches
		if mut != nil {
			mut(&cfg)
		}
		s, err := NewSystem(cfg, DefaultHardware())
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(&PGASFused{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	adapt := func(c *Config) {
		c.AdaptivePlacement = true
		c.RebalanceEvery = 3
		c.HotTables = 2
	}
	steady := func(mut func(*Config)) float64 {
		return run(24, mut).TotalTime - run(12, mut).TotalTime
	}

	adaptive := run(24, adapt)
	if adaptive.Rebalances == 0 {
		t.Fatal("adaptive run never rebalanced on a heavily skewed workload")
	}
	if adaptive.MigratedBytes <= 0 {
		t.Error("rebalancing reported no migration traffic")
	}

	a, s, g := steady(adapt), steady(nil), steady(func(c *Config) { c.GreedyPlan = true })
	if a >= s {
		t.Errorf("adaptive steady-state time %.6f ms is not below static table-wise %.6f ms", a*1e3, s*1e3)
	}
	if a > 1.05*g {
		t.Errorf("adaptive steady-state time %.6f ms is worse than greedy %.6f ms beyond 5%% slack", a*1e3, g*1e3)
	}
	t.Logf("steady-state window: adaptive %.6f ms, static %.6f ms, greedy %.6f ms", a*1e3, s*1e3, g*1e3)
}

// TestOwnerLoadAccounting pins the served-load bookkeeping (the ROADMAP's
// conservation law): every pooled lookup is charged to exactly one GPU — the
// serving owner or replica for the keys it gathers, the consumer for the hit
// keys it resolves from its cache or a hot-table mirror — so the owner-key
// total equals the workload's pooled-lookup total. The oracle counts lookups
// with a fresh generator of the same seed, independent of the route plan.
func TestOwnerLoadAccounting(t *testing.T) {
	plain := TestScaleConfig(2)
	cached := cacheTestConfig(3)
	cached.CacheFraction = 0.003
	mirrored := mirrorGateConfig()
	mirrored.AdaptivePlacement = true
	mirrored.RebalanceEvery = 2
	mirrored.HotTables = 1
	replicated := TestScaleConfig(3)
	replicated.Replicas = 2
	replicatedCached := cached
	replicatedCached.Replicas = 2
	for _, c := range []struct {
		name string
		cfg  Config
		hw   HardwareParams
		// hits names the consumer-local tier the row must exercise.
		hits string
	}{
		{"plain", plain, DefaultHardware(), ""},
		{"cache", cached, cacheTestHardware(), "cache"},
		{"hot-mirror", mirrored, DefaultHardware(), "mirror"},
		{"replicas2", replicated, DefaultHardware(), ""},
		{"replicas2+cache", replicatedCached, cacheTestHardware(), "cache"},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			cfg.Functional = false
			s, err := NewSystem(cfg, c.hw)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run(&Baseline{})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.OwnerKeys) != cfg.GPUs {
				t.Fatalf("owner load has %d entries for %d GPUs", len(res.OwnerKeys), cfg.GPUs)
			}
			var total int64
			for g, k := range res.OwnerKeys {
				if k <= 0 {
					t.Errorf("GPU %d served no keys", g)
				}
				total += k
			}
			switch c.hits {
			case "cache":
				if s.Caches.Stats().Hits == 0 {
					t.Fatal("no cache hits; the row is not exercising consumer-local keys")
				}
			case "mirror":
				if res.Rebalances == 0 || !s.hotMirrorActive() {
					t.Fatal("no mirror installed; the row is not exercising consumer-local keys")
				}
			}
			gen, err := workload.NewGenerator(cfg.WorkloadConfig())
			if err != nil {
				t.Fatal(err)
			}
			var want int64
			for i := 0; i < cfg.Batches; i++ {
				want += gen.NextSummary().TotalIndices()
			}
			if total != want {
				t.Errorf("owner-served plus consumer-local keys sum to %d, workload pooled %d lookups", total, want)
			}
		})
	}
}

// TestPlacementStatsMatchPerReferenceCounts holds the controller's table
// EMAs, batch after batch, to a reference collector fed the plain way: one
// AddTable(fid, pooling factor) per sample of the drawn batch. The counts
// the pooling pass records must match it exactly, with and without empty
// bags, in timing runs (which never materialise a batch) and functional
// runs.
func TestPlacementStatsMatchPerReferenceCounts(t *testing.T) {
	for _, c := range []struct {
		name string
		tune func(*Config)
	}{
		{"pow2", func(*Config) {}},
		{"nulls", func(c *Config) { c.NullProbability = 0.4 }},
	} {
		for _, functional := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/functional=%v", c.name, functional), func(t *testing.T) {
				cfg := placementSkewConfig()
				cfg.Batches = 6
				cfg.AdaptivePlacement = true
				cfg.RebalanceEvery = 2
				cfg.Functional = functional
				c.tune(&cfg)
				s, err := NewSystem(cfg, DefaultHardware())
				if err != nil {
					t.Fatal(err)
				}
				// A timing run keeps no batch; a twin generator draws the
				// batches it walked.
				twin, err := workload.NewGenerator(cfg.WorkloadConfig())
				if err != nil {
					t.Fatal(err)
				}
				got := s.Placement().Stats()
				want := placement.NewStats(s.Placement().Config())
				for b := 0; b < cfg.Batches; b++ {
					bd, err := s.NextBatchData()
					if err != nil {
						t.Fatal(err)
					}
					batch := bd.Sparse
					if !functional {
						batch = twin.NextBatch()
					}
					want.BeginBatch()
					for fid := 0; fid < cfg.TotalTables; fid++ {
						fb := batch.FeatureByID(fid)
						for smp := 0; smp < cfg.BatchSize; smp++ {
							want.AddTable(fid, float64(fb.PoolingFactor(smp)))
						}
					}
					want.EndBatch()
					if !slices.Equal(got.Loads(), want.Loads()) {
						t.Fatalf("batch %d: table loads %v, per-reference %v", b, got.Loads(), want.Loads())
					}
				}
			})
		}
	}
}

// TestAdaptivePlacementSteadyStateZeroAllocs pins the hot-path contract with
// placement enabled AND mirrors active: statistics feeding rides the
// existing host-side compile pass, and serving mirrored reads through the
// plan's hit-skipping arithmetic must not allocate inside RunBatch.
func TestAdaptivePlacementSteadyStateZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed test")
	}
	cfg := benchConfig()
	cfg.AdaptivePlacement = true
	cfg.RebalanceEvery = 2
	cfg.HotTables = 2
	sys, err := NewSystem(cfg, DefaultHardware())
	if err != nil {
		t.Fatal(err)
	}
	primeMirrors(t, sys)
	r := testing.Benchmark(func(b *testing.B) { benchSystem(b, sys, &PGASFused{}) })
	if r.N == 0 {
		t.Fatal("the steady-state benchmark failed")
	}
	if allocs := r.AllocsPerOp(); allocs != 0 {
		t.Errorf("placement steady state allocates %d allocs/op (want 0)", allocs)
	}
}

// TestAdaptivePlacementUnderDrift exercises rebalancing under shifting
// traffic: the Zipf rank mapping rotates every few batches while the
// controller keeps re-planning. The placement trajectory must stay a pure
// function of (config, seed) — identical counters, loads and simulated time
// across same-seed runs — and the run must still rebalance.
func TestAdaptivePlacementUnderDrift(t *testing.T) {
	run := func() *Result {
		cfg := placementSkewConfig()
		cfg.AdaptivePlacement = true
		cfg.RebalanceEvery = 3
		cfg.HotTables = 2
		cfg.HotSetDriftEvery = 4
		s, err := NewSystem(cfg, DefaultHardware())
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(&PGASFused{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Rebalances != b.Rebalances || a.MigratedBytes != b.MigratedBytes ||
		a.TotalTime != b.TotalTime || !reflect.DeepEqual(a.OwnerKeys, b.OwnerKeys) {
		t.Fatalf("same-seed drifting adaptive runs diverged:\n%+v\nvs\n%+v", a, b)
	}
	if a.Rebalances == 0 && a.MigratedBytes == 0 {
		t.Fatal("drifting adaptive run never rebalanced")
	}
}

// batchRecorder is a backend that records the batches GPU 0 runs.
type batchRecorder struct {
	Backend
	ran []*BatchData
}

func (r *batchRecorder) RunBatch(s *System, p *sim.Proc, g int, bd *BatchData, bk *trace.Breakdown) {
	if g == 0 {
		r.ran = append(r.ran, bd)
	}
	r.Backend.RunBatch(s, p, g, bd, bk)
}

// TestPipelinedPlacementRunsLockstep runs adaptive placement with
// PipelineDepth 2 through System.Run, which runs every exchange in lockstep
// at any depth: every batch's functional outputs equal the serial reference,
// and the simulated total and every GPU's breakdown equal the depth-1 run's
// exactly.
func TestPipelinedPlacementRunsLockstep(t *testing.T) {
	for _, name := range RegisteredBackends() {
		t.Run(name, func(t *testing.T) {
			cfg := placementSkewConfig()
			cfg.Functional = true
			cfg.AdaptivePlacement = true
			cfg.RebalanceEvery = 3
			cfg.HotTables = 2
			run := func(depth int) (*Result, *System, []*BatchData) {
				cfg := cfg
				cfg.PipelineDepth = depth
				s, err := NewSystem(cfg, DefaultHardware())
				if err != nil {
					t.Fatal(err)
				}
				be, err := NewBackendByName(name)
				if err != nil {
					t.Fatal(err)
				}
				rec := &batchRecorder{Backend: be}
				res, err := s.Run(rec)
				if err != nil {
					t.Fatal(err)
				}
				return res, s, rec.ran
			}
			res, s, ran := run(2)
			if res.Rebalances == 0 {
				t.Fatal("the run swapped no plan; the test is not exercising placement")
			}
			if len(ran) != cfg.Batches {
				t.Fatalf("GPU 0 ran %d batches, want %d", len(ran), cfg.Batches)
			}
			for i, bd := range ran {
				want := mustReference(t, s, bd.Sparse)
				for g := range want {
					if !tensor.Equal(bd.Final[g], want[g]) {
						t.Fatalf("batch %d, GPU %d differs from reference (max diff %g)",
							i, g, tensor.MaxAbsDiff(bd.Final[g], want[g]))
					}
				}
			}
			lock, _, _ := run(1)
			sameTimes(t, res, lock)
		})
	}
}

// gradedSkewServingConfig is the benchmark's infer-placement shape: the
// placement sweep's graded-skew serving configuration (tables 0-1 pool up
// to 64 rows, 2-3 up to 16, the tail up to 4; Zipf 1.2 rows, dedup) under
// adaptive placement every 8 batches with a two-table mirror budget.
func gradedSkewServingConfig(batches int) Config {
	cfg := ServingScaleConfig(4)
	cfg.Batches = batches
	pool := make([]int, cfg.TotalTables)
	for f := range pool {
		pool[f] = 4
	}
	pool[0], pool[1] = 64, 64
	pool[2], pool[3] = 16, 16
	cfg.MinPooling, cfg.MaxPooling = 1, 4
	cfg.PerFeatureMaxPooling = pool
	cfg.ZipfExponent = 1.2
	cfg.Dedup = true
	cfg.AdaptivePlacement = true
	cfg.RebalanceEvery = 8
	cfg.HotTables = 2
	return cfg
}

// TestAdaptivePlacementNeverSlowerThanStatic is the placement controller's
// metamorphic gate: the controller adopts a layout only when its priced
// batch over the epoch pays for the migration, so an adaptive run — with or
// without a mirror budget — must never be slower than the same run on the
// static plan, beyond a 0.5% allowance for what the prices leave out
// (contention, unpack, latency). The grid is the registry gate's placement
// and mirror workloads on every backend, one and two nodes, dedup and cache
// on and off, plus the benchmark's infer-placement shape at 24 batches. Both outcomes
// must occur: some point adopts a move or a mirror, and some declines
// everything.
func TestAdaptivePlacementNeverSlowerThanStatic(t *testing.T) {
	type point struct {
		name string
		cfg  Config
		hw   HardwareParams
		be   string
	}
	var points []point
	for _, be := range RegisteredBackends() {
		for _, m := range []struct {
			name string
			hw   HardwareParams
		}{{"single", DefaultHardware()}, {"cluster2", ClusterHardware(2)}} {
			for _, shape := range []struct {
				name string
				cfg  Config
			}{{"gate", placementGateConfig()}, {"mirror-gate", mirrorGateConfig()}} {
				for _, dedup := range []bool{false, true} {
					for _, cached := range []bool{false, true} {
						cfg := shape.cfg
						cfg.Functional = false
						cfg.Dedup = dedup
						if cached {
							cfg.CacheFraction = 1e-8
						}
						cfg.AdaptivePlacement, cfg.RebalanceEvery, cfg.HotTables = true, 2, 1
						name := fmt.Sprintf("%s/%s/%s/dedup=%v/cache=%v", be, m.name, shape.name, dedup, cached)
						points = append(points, point{name, cfg, m.hw, be})
					}
				}
			}
		}
	}
	for _, be := range []string{"baseline", "pgas-fused"} {
		points = append(points, point{"infer-placement/" + be, gradedSkewServingConfig(24), DefaultHardware(), be})
	}
	run := func(t *testing.T, p point, cfg Config) *Result {
		t.Helper()
		s, err := NewSystem(cfg, p.hw)
		if err != nil {
			t.Fatal(err)
		}
		be, err := NewBackendByName(p.be)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(be)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	var acted, declined int
	for _, p := range points {
		static := p.cfg
		static.AdaptivePlacement, static.RebalanceEvery, static.HotTables = false, 0, 0
		base := run(t, p, static).TotalTime
		for _, hot := range []int{0, p.cfg.HotTables} {
			cfg := p.cfg
			cfg.HotTables = hot
			res := run(t, p, cfg)
			if res.MigratedBytes > 0 {
				acted++
			} else {
				declined++
			}
			if res.TotalTime > 1.005*base {
				t.Errorf("%s, mirror budget %d: adaptive %.6f ms exceeds static %.6f ms by %.2f%% (%d swaps, %.0f bytes migrated)",
					p.name, hot, res.TotalTime*1e3, base*1e3, (res.TotalTime/base-1)*100, res.Rebalances, res.MigratedBytes)
			}
		}
	}
	if acted == 0 || declined == 0 {
		t.Errorf("%d points moved or mirrored a table and %d declined; the gate needs both", acted, declined)
	}
}

// TestPlacementPriceMatchesPlan holds the controller's prices to the route
// plan's: rebuilt from one batch's raw per-table counts (no averaging), the
// incumbent layout's price of every owner must equal, exactly, the
// batchPrice of the terms the compiled plan charges that owner under each
// route rule — its served pairs on their routes, its own cache and mirror
// hits, and its slowest link — and every GPU's priced unpack must equal the
// pair rule's unpack the collective's walk charges. The grid runs one and two nodes with dedup and the cache
// on and off; every machine also runs a mirrored table, and the cached runs
// warm the cache over earlier batches, so the priced batch has real hits.
func TestPlacementPriceMatchesPlan(t *testing.T) {
	for _, m := range []struct {
		name string
		hw   HardwareParams
	}{{"single", DefaultHardware()}, {"cluster2", ClusterHardware(2)}} {
		for _, dedup := range []bool{false, true} {
			for _, cached := range []bool{false, true} {
				for _, mirror := range []bool{false, true} {
					name := fmt.Sprintf("%s/dedup=%v/cache=%v/mirror=%v", m.name, dedup, cached, mirror)
					t.Run(name, func(t *testing.T) {
						cfg := placementGateConfig()
						cfg.Functional = false
						cfg.Dedup = dedup
						if cached {
							cfg.CacheFraction = 1e-8
						}
						cfg.AdaptivePlacement = true
						cfg.RebalanceEvery = 100
						s, err := NewSystem(cfg, m.hw)
						if err != nil {
							t.Fatal(err)
						}
						if mirror {
							s.setHot([]int{0})
						}
						for b := 0; b < 2; b++ { // warm the cache
							if _, err := s.NextBatchData(); err != nil {
								t.Fatal(err)
							}
						}
						// A fresh controller's first batch seeds its
						// statistics with the raw counts.
						ctl, err := s.Spec.newPlacementController()
						if err != nil {
							t.Fatal(err)
						}
						s.placeCtl = ctl
						bd, err := s.NextBatchData()
						if err != nil {
							t.Fatal(err)
						}
						if cached && bd.Plan.resident && s.Caches.Stats().Hits == 0 {
							t.Fatal("no cache hits; the hit terms go unchecked")
						}
						owner := make([]int, cfg.TotalTables)
						for g, shard := range s.Plan {
							for _, fid := range shard {
								owner[fid] = g
							}
						}
						pr := newLayoutPricer(s, cfg.tableBytesAll())
						pr.price(ctl.Stats(), owner, s.hotMirror)
						plan := bd.Plan
						for g := 0; g < cfg.GPUs; g++ {
							if want := planPrice(s, plan, g, plan.Class); pr.one[g] != want {
								t.Errorf("owner %d, one-sided rule: priced from statistics %v, from the compiled plan %v", g, pr.one[g], want)
							}
							if want := planPrice(s, plan, g, plan.CollectiveClass); pr.pair[g] != want {
								t.Errorf("owner %d, pair rule: priced from statistics %v, from the compiled plan %v", g, pr.pair[g], want)
							}
							var want sim.Duration
							if vecs, segments := plan.unpackWork(g, plan.CollectiveClass, false); segments > 0 {
								want = s.HW.GPU.UnpackKernelCost(float64(vecs)*float64(cfg.VectorBytes()), segments)
							}
							if pr.unpack[g] != want {
								t.Errorf("GPU %d: unpack priced from statistics %v, the walk's %v", g, pr.unpack[g], want)
							}
						}
					})
				}
			}
		}
	}
}

// planPrice returns owner o's priced batch from the compiled plan under a
// route rule: the batchPrice of the route terms of every pair it serves,
// plus its own hits as a consumer, over its slowest link — a pair's NVLink
// links, or one NIC send per remote node (the staged rows on a node-wire
// node).
func planPrice(s *System, plan *RoutePlan, o int, class routeRule) sim.Duration {
	G := s.Cfg.GPUs
	vb := int64(s.Cfg.VectorBytes())
	vecs, idx := plan.ConsumerChunkHits(o, 0, s.Cfg.BatchSize)
	sum := routeTerms{hot: idx * vb, stream: idx*8 + int64(vecs)*vb, items: int64(vecs)}
	links := make([]int64, G) // wire vectors per link, named by its first consumer
	for c := 0; c < G; c++ {
		cls := class(o, c)
		miss := plan.pairMissIdx(o, c)
		uniq := int64(plan.pairItems(cls, o, c))
		if cls == RouteLocal || cls == RouteDense {
			uniq = plan.pair(o, c).uniq // the gather-dedup split (0 without dedup)
		}
		terms := s.routeTermsOf(cls, miss, int64(plan.pairVecs(o, c)), uniq, plan.GatherDedup(o, c))
		sum = sum.plus(terms)
		sum.stream += miss * 8
		k := c
		if s.nodeOf(c) != s.nodeOf(o) {
			k = s.nodeOf(c) * s.cluster.GPUsPerNode
			if cls == RouteNodeWire {
				k = s.stageGPU(o, s.nodeOf(c))
			}
		}
		links[k] += terms.remote
	}
	var wire sim.Duration
	for k, n := range links {
		wire = max(wire, s.wireTime(o, k, n))
	}
	return s.batchPrice(sum, wire)
}

// TestMigrationTimeMatchesCharge holds migrationTime to the fabric: on an
// idle machine, the priced makespan of a decision's sends must equal the
// last delivery chargeMigration reports, exactly — moves within a node, and
// on two nodes moves across them and mirror installs whose sends share a
// NIC rail.
func TestMigrationTimeMatchesCharge(t *testing.T) {
	for _, c := range []struct {
		name       string
		hw         HardwareParams
		moves      []placement.Move
		newMirrors []int
	}{
		{"single/moves", DefaultHardware(), []placement.Move{{Table: 1, From: 0, To: 2}, {Table: 2, From: 1, To: 0}, {Table: 3, From: 1, To: 0}}, nil},
		{"single/mirrors", DefaultHardware(), nil, []int{0, 4}},
		{"single/moves+mirrors", DefaultHardware(), []placement.Move{{Table: 1, From: 0, To: 3}}, []int{0, 1}},
		{"cluster2/moves", ClusterHardware(2), []placement.Move{{Table: 1, From: 0, To: 2}, {Table: 2, From: 1, To: 3}, {Table: 4, From: 2, To: 0}}, nil},
		{"cluster2/mirrors", ClusterHardware(2), nil, []int{0, 2}},
		{"cluster2/moves+mirrors", ClusterHardware(2), []placement.Move{{Table: 3, From: 1, To: 2}}, []int{0, 3}},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := placementGateConfig()
			cfg.Functional = false
			cfg.AdaptivePlacement = true
			cfg.RebalanceEvery = 2
			s, err := NewSystem(cfg, c.hw)
			if err != nil {
				t.Fatal(err)
			}
			plan := make([][]int, cfg.GPUs)
			owner := make([]int, cfg.TotalTables)
			for g, shard := range s.Plan {
				for _, fid := range shard {
					owner[fid] = g
				}
			}
			for _, mv := range c.moves {
				owner[mv.Table] = mv.To
			}
			for fid, g := range owner {
				plan[g] = append(plan[g], fid)
			}
			reb := &placement.Rebalance{Plan: plan, Moves: c.moves, NewMirrors: c.newMirrors}
			want := s.chargeMigration(reb)
			got := s.migrationTime(owner, c.moves, c.newMirrors, cfg.tableBytesAll())
			if got != want || got <= 0 {
				t.Errorf("migrationTime %v, chargeMigration delivers the last send at %v", got, want)
			}
		})
	}
}
