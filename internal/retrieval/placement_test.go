package retrieval

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"pgasemb/internal/embedding"
	"pgasemb/internal/metrics"
	"pgasemb/internal/placement"
	"pgasemb/internal/tensor"
	"pgasemb/internal/workload"
)

// placementGateConfig is the registry gate's adaptive-placement variant of
// clusterTestConfig: graded per-feature pooling — one dominant table, two
// mid-hot tables, flat tail — so the observed loads are imbalanced enough
// that the controller swaps both with and without the dominant table
// mirrored, and enough batches for two rebalance boundaries.
func placementGateConfig() Config {
	cfg := clusterTestConfig(4)
	cfg.Batches = 6
	cfg.PerFeatureMaxPooling = []int{12, 8, 8, 3, 3, 3}
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
			off, _ := run(t, true, false, v.dedup, v.cache, 0, v.prec)
			on, sys := run(t, true, true, v.dedup, v.cache, v.hot, v.prec)
			if on.Rebalances == 0 {
				t.Fatal("skewed gate workload triggered no rebalance; the gate is not exercising swaps")
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

// TestAdaptivePlacementBeatsStatic is the subsystem's acceptance criterion:
// on the skewed workload, adaptive placement must strictly reduce the
// slowest owner's served load versus the static table-wise plan, and must be
// no worse than the analytic greedy planner (small slack: greedy knows the
// expected loads a priori, adaptive has to learn them). The comparison is
// made on the steady-state window — batches 12..24, after the controller has
// learned the skew — isolated by differencing a 24-batch run against a
// 12-batch run of the same seed (the load counters are deterministic
// accumulators, so the difference is exactly that window's served load).
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
	steady := func(mut func(*Config)) []float64 {
		long, short := run(24, mut), run(12, mut)
		out := make([]float64, len(long.OwnerKeys))
		for g := range out {
			out[g] = float64(long.OwnerKeys[g] - short.OwnerKeys[g])
		}
		return out
	}
	maxOf := func(xs []float64) float64 {
		var max float64
		for _, x := range xs {
			if x > max {
				max = x
			}
		}
		return max
	}

	adaptive := run(24, adapt)
	if adaptive.Rebalances == 0 {
		t.Fatal("adaptive run never rebalanced on a heavily skewed workload")
	}
	if adaptive.MigratedBytes <= 0 {
		t.Error("rebalancing reported no migration traffic")
	}

	aLoad := steady(adapt)
	sLoad := steady(nil)
	gLoad := steady(func(c *Config) { c.GreedyPlan = true })
	if a, s := maxOf(aLoad), maxOf(sLoad); a >= s {
		t.Errorf("adaptive steady-state max-owner load %g is not below static table-wise %g", a, s)
	}
	if a, g := maxOf(aLoad), maxOf(gLoad); a > 1.05*g {
		t.Errorf("adaptive steady-state max-owner load %g is worse than greedy %g beyond 5%% slack", a, g)
	}
	if ai, si := metrics.Imbalance(aLoad), metrics.Imbalance(sLoad); ai >= si {
		t.Errorf("adaptive owner imbalance %.3f is not below static %.3f", ai, si)
	}
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
	mirrored := placementGateConfig()
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
			if len(res.OwnerKeys) != cfg.GPUs || len(res.OwnerBytes) != cfg.GPUs {
				t.Fatalf("owner load has %d/%d entries for %d GPUs", len(res.OwnerKeys), len(res.OwnerBytes), cfg.GPUs)
			}
			var total int64
			for g, k := range res.OwnerKeys {
				if k <= 0 {
					t.Errorf("GPU %d served no keys", g)
				}
				total += k
				if res.OwnerBytes[g] <= 0 {
					t.Errorf("GPU %d served no bytes", g)
				}
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

// TestPlacementStatsMatchPerReferenceCounts holds the controller's bucket
// and table EMAs, batch after batch, to a reference collector fed the plain
// way: one AddBucket(fid, row*nb/rows, 1) per reference. The per-bucket
// integer counts and the shift bucketing of power-of-two tables must match
// it exactly, on power-of-two tables, on tables of mixed sizes (most not a
// power of two, some smaller than the bucket count) and with empty bags, in
// timing runs (which draw into the run's scratch batch) and functional runs.
func TestPlacementStatsMatchPerReferenceCounts(t *testing.T) {
	for _, c := range []struct {
		name string
		tune func(*Config)
	}{
		{"pow2", func(*Config) {}},
		{"mixed-rows", func(c *Config) {
			c.PerFeatureRows = []int{1000, 3, 512, 777, 1, 100, 4096, 63, 65, 96, 2, 5000, 129, 24, 1 << 14, 10007}
		}},
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
				got := s.Placement().Stats()
				want := placement.NewStats(s.Placement().Config())
				nb := want.NumBuckets()
				for b := 0; b < cfg.Batches; b++ {
					bd, err := s.NextBatchData()
					if err != nil {
						t.Fatal(err)
					}
					batch := bd.Sparse
					if !functional {
						batch = &s.planScr.batch
					}
					want.BeginBatch()
					for fid := 0; fid < cfg.TotalTables; fid++ {
						fb := batch.FeatureByID(fid)
						rows := cfg.tableRows(fid)
						for smp := 0; smp < cfg.BatchSize; smp++ {
							for _, raw := range fb.Bag(smp) {
								row := embedding.HashIndex(raw, rows)
								want.AddBucket(fid, int(uint64(row)*uint64(nb)/uint64(rows)), 1)
							}
							want.AddTable(fid, float64(fb.PoolingFactor(smp)))
						}
					}
					want.EndBatch()
					if !slices.Equal(got.Loads(), want.Loads()) {
						t.Fatalf("batch %d: table loads %v, per-reference %v", b, got.Loads(), want.Loads())
					}
					for fid := 0; fid < cfg.TotalTables; fid++ {
						if g, w := got.BucketLoads(fid), want.BucketLoads(fid); !slices.Equal(g, w) {
							t.Fatalf("batch %d table %d (%d rows): bucket loads %v, per-reference %v",
								b, fid, cfg.tableRows(fid), g, w)
						}
					}
				}
			})
		}
	}
}

// TestAdaptivePlacementSteadyStateZeroAllocs pins the hot-path contract with
// placement enabled AND mirrors active: statistics feeding rides the
// existing host-side compile pass, and serving mirrored reads through the
// CacheView skip-arithmetic must not allocate inside RunBatch.
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
