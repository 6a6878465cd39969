package retrieval

import (
	"fmt"
	"testing"

	"pgasemb/internal/embedding"
	"pgasemb/internal/metrics"
	"pgasemb/internal/tensor"
	"pgasemb/internal/workload"
)

// dedupTestConfig returns a small functional configuration with a skewed
// index stream, so batch-level deduplication finds real duplicates at test
// scale.
func dedupTestConfig(gpus int) Config {
	cfg := TestScaleConfig(gpus)
	cfg.Batches = 5
	cfg.Distribution = workload.Zipf
	cfg.ZipfExponent = 1.5
	cfg.Dedup = true
	return cfg
}

// The headline acceptance test: with dedup enabled, every table-wise
// backend's gathered embeddings are bit-identical to the non-dedup run and
// to the serial reference — expansion from unique rows must reproduce dense
// pooling exactly — and the baseline and pgas-fused report the same dedup
// counters on the same configuration.
func TestDedupRetrievalBitExact(t *testing.T) {
	for _, gpus := range []int{2, 3} {
		counters := map[string]metrics.DedupCounters{}
		for _, mkBackend := range []func() Backend{
			func() Backend { return &Baseline{} },
			func() Backend { return &PGASFused{} },
			func() Backend { return &PGASFused{StageRemote: true} },
			func() Backend { return &Baseline{DirectPlacement: true} },
		} {
			deduped := dedupTestConfig(gpus)
			hw := DefaultHardware()

			dedupSys, err := NewSystem(deduped, hw)
			if err != nil {
				t.Fatal(err)
			}
			dedupRes, err := dedupSys.Run(mkBackend())
			if err != nil {
				t.Fatal(err)
			}

			plain := deduped
			plain.Dedup = false
			plainSys, err := NewSystem(plain, hw)
			if err != nil {
				t.Fatal(err)
			}
			plainRes, err := plainSys.Run(mkBackend())
			if err != nil {
				t.Fatal(err)
			}

			name := dedupRes.Backend
			stats := dedupRes.DedupStats
			counters[name] = stats
			if stats.UniqueRows == 0 || stats.UniqueRows >= stats.EligibleIdx {
				t.Fatalf("%s@%dgpu: dedup saw no duplicates (unique %d of %d); test exercises nothing",
					name, gpus, stats.UniqueRows, stats.EligibleIdx)
			}

			ref, err := Reference(dedupSys, dedupRes.LastBatch)
			if err != nil {
				t.Fatal(err)
			}
			for g := 0; g < gpus; g++ {
				if !tensor.Equal(dedupRes.Final[g], plainRes.Final[g]) {
					t.Fatalf("%s@%dgpu: GPU %d deduped output differs from dense", name, gpus, g)
				}
				if !tensor.Equal(dedupRes.Final[g], ref[g]) {
					t.Fatalf("%s@%dgpu: GPU %d deduped output differs from reference", name, gpus, g)
				}
			}
		}
		if base, pgas := counters["baseline"], counters["pgas-fused"]; base != pgas {
			t.Errorf("%dgpu: backend dedup counters disagree: baseline %+v, pgas-fused %+v", gpus, base, pgas)
		}
	}
}

// Dedup composed with the hot-row cache must stay bit-exact, and cached rows
// must not be double-counted: rows the consumer pools from its cache never
// enter the dedup key sets, so the eligible-index count drops by exactly the
// hit indices.
func TestDedupWithCacheBitExact(t *testing.T) {
	for _, mkBackend := range []func() Backend{
		func() Backend { return &Baseline{} },
		func() Backend { return &PGASFused{} },
	} {
		cfg := dedupTestConfig(2)
		cfg.CacheFraction = 0.003
		hw := DefaultHardware()
		hw.GPU.MemoryCapacity = 1 << 20

		bothSys, err := NewSystem(cfg, hw)
		if err != nil {
			t.Fatal(err)
		}
		bothRes, err := bothSys.Run(mkBackend())
		if err != nil {
			t.Fatal(err)
		}
		if bothSys.Caches.Stats().Hits == 0 {
			t.Fatalf("%s: cache saw no hits; composition not exercised", bothRes.Backend)
		}

		plain := cfg
		plain.Dedup = false
		plain.CacheFraction = 0
		plainSys, err := NewSystem(plain, hw)
		if err != nil {
			t.Fatal(err)
		}
		plainRes, err := plainSys.Run(mkBackend())
		if err != nil {
			t.Fatal(err)
		}

		ref, err := Reference(bothSys, bothRes.LastBatch)
		if err != nil {
			t.Fatal(err)
		}
		for g := 0; g < 2; g++ {
			if !tensor.Equal(bothRes.Final[g], plainRes.Final[g]) {
				t.Fatalf("%s: GPU %d dedup+cache output differs from dense uncached", bothRes.Backend, g)
			}
			if !tensor.Equal(bothRes.Final[g], ref[g]) {
				t.Fatalf("%s: GPU %d dedup+cache output differs from reference", bothRes.Backend, g)
			}
		}

		// Cache hits shrink the dedup-eligible stream.
		noCache := cfg
		noCache.CacheFraction = 0
		noCacheSys, err := NewSystem(noCache, hw)
		if err != nil {
			t.Fatal(err)
		}
		noCacheRes, err := noCacheSys.Run(mkBackend())
		if err != nil {
			t.Fatal(err)
		}
		if bothRes.DedupStats.EligibleIdx >= noCacheRes.DedupStats.EligibleIdx {
			t.Fatalf("%s: eligible indices with cache %d not below uncached %d (hits double-counted?)",
				bothRes.Backend, bothRes.DedupStats.EligibleIdx, noCacheRes.DedupStats.EligibleIdx)
		}
	}
}

// Timing-only and functional runs of the same deduped configuration must
// report the same simulated times — dedup must preserve the repo's
// one-code-path-two-modes invariant.
func TestDedupTimingMatchesFunctional(t *testing.T) {
	for _, mkBackend := range []func() Backend{
		func() Backend { return &Baseline{} },
		func() Backend { return &PGASFused{} },
	} {
		cfg := dedupTestConfig(2)
		var times []float64
		var stats []metrics.DedupCounters
		for _, functional := range []bool{true, false} {
			c := cfg
			c.Functional = functional
			sys, err := NewSystem(c, DefaultHardware())
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.Run(mkBackend())
			if err != nil {
				t.Fatal(err)
			}
			times = append(times, float64(res.TotalTime))
			stats = append(stats, res.DedupStats)
		}
		diff := times[0] - times[1]
		if diff < 0 {
			diff = -diff
		}
		if diff > 1e-9 {
			t.Fatalf("%s: functional time %g != timing-only time %g", mkBackend().Name(), times[0], times[1])
		}
		if stats[0] != stats[1] {
			t.Fatalf("%s: functional dedup stats %+v != timing-only %+v", mkBackend().Name(), stats[0], stats[1])
		}
	}
}

// Two same-seed deduped runs must agree bit-exactly.
func TestDedupDeterminism(t *testing.T) {
	cfg := dedupTestConfig(2)
	var totals []float64
	var stats []metrics.DedupCounters
	for i := 0; i < 2; i++ {
		sys, err := NewSystem(cfg, DefaultHardware())
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(&PGASFused{})
		if err != nil {
			t.Fatal(err)
		}
		totals = append(totals, float64(res.TotalTime))
		stats = append(stats, res.DedupStats)
	}
	if totals[0] != totals[1] || stats[0] != stats[1] {
		t.Fatalf("same-seed deduped runs diverged: times %v, stats %v", totals, stats)
	}
}

// dedupSpeedConfig returns a timing-only wire-bound configuration: pooling
// factor 1 and a heavily-skewed stream, so duplicate suppression shrinks the
// dominant cost (cross-GPU vector movement) on both backends.
func dedupSpeedConfig() Config {
	return Config{
		GPUs:            2,
		TotalTables:     8,
		Rows:            2048,
		Dim:             64,
		BatchSize:       1024,
		MinPooling:      1,
		MaxPooling:      1,
		Batches:         3,
		Seed:            2024,
		ChunksPerKernel: 4,
		Distribution:    workload.Zipf,
		ZipfExponent:    1.2,
	}
}

// The perf acceptance test: under Zipf skew ≥ 1.0, enabling dedup must
// STRICTLY reduce both the modeled communication bytes and the accumulated
// EMB time on both backends. Saturated occupancy (SaturationItems = 0) puts
// the test-scale batch in the paper-scale regime where kernel time tracks
// traffic — below saturation the expansion kernel's poor occupancy can
// legitimately eat the wire win (see ExpandKernelCost).
func TestDedupReducesCommBytesAndTime(t *testing.T) {
	run := func(dedup bool, b Backend) (float64, float64) {
		cfg := dedupSpeedConfig()
		cfg.Dedup = dedup
		hw := DefaultHardware()
		hw.GPU.SaturationItems = 0
		sys, err := NewSystem(cfg, hw)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(b)
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.TotalTime), res.CommTrace.Total()
	}
	for _, mkBackend := range []func() Backend{
		func() Backend { return &Baseline{} },
		func() Backend { return &PGASFused{} },
	} {
		name := mkBackend().Name()
		denseTime, denseBytes := run(false, mkBackend())
		dedupTime, dedupBytes := run(true, mkBackend())
		if dedupBytes >= denseBytes {
			t.Fatalf("%s: deduped comm bytes %g >= dense %g", name, dedupBytes, denseBytes)
		}
		if dedupTime >= denseTime {
			t.Fatalf("%s: deduped EMB time %g >= dense %g", name, dedupTime, denseTime)
		}
	}
}

// The measured batch dedup ratio must match the analytic expectation
// E[distinct] = Σ_b (1 − (1 − q_b)^n) computed from the workload's own index
// distribution, bucketed through the embedding row hash (so collisions are
// accounted for exactly).
func TestDedupRatioMatchesAnalytic(t *testing.T) {
	for _, dist := range []workload.IndexDist{workload.Zipf, workload.Uniform} {
		cfg := Config{
			GPUs:            2,
			TotalTables:     6,
			Rows:            128,
			Dim:             8,
			BatchSize:       64,
			MinPooling:      4,
			MaxPooling:      4,
			Batches:         10,
			Seed:            7,
			ChunksPerKernel: 4,
			Distribution:    dist,
			ZipfExponent:    1.2,
			Dedup:           true,
		}
		sys, err := NewSystem(cfg, DefaultHardware())
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(&Baseline{})
		if err != nil {
			t.Fatal(err)
		}
		stats := res.DedupStats

		// Per off-diagonal (owner, consumer) pair, each of the owner's fg
		// tables sees mini×pooling independent draws; pairs and batches are
		// i.i.d., so the measured mean unique count per pair converges on
		// fg × E[distinct].
		fg := cfg.TotalTables / cfg.GPUs
		mini := cfg.BatchSize / cfg.GPUs
		n := int64(mini * cfg.MinPooling)
		expected := float64(fg) * cfg.WorkloadConfig().ExpectedUnique(n, cfg.Rows, func(raw int64) int {
			return embedding.HashIndex(raw, cfg.Rows)
		})
		pairs := cfg.GPUs * (cfg.GPUs - 1)
		measured := float64(stats.UniqueRows) / float64(cfg.Batches*pairs)
		rel := (measured - expected) / expected
		if rel < 0 {
			rel = -rel
		}
		if rel > 0.05 {
			t.Fatalf("%v: measured unique/pair %.2f vs analytic %.2f (%.1f%% off)",
				dist, measured, expected, 100*rel)
		}
	}
}

// Wire savings must grow monotonically with Zipf skew: more skew, more
// duplicates, fewer unique rows shipped.
func TestDedupSavingsMonotoneInSkew(t *testing.T) {
	var saved, uniqueFrac []float64
	for _, exp := range []float64{1.0, 1.2, 1.5, 2.0} {
		cfg := dedupSpeedConfig()
		cfg.Dedup = true
		cfg.ZipfExponent = exp
		sys, err := NewSystem(cfg, DefaultHardware())
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(&Baseline{})
		if err != nil {
			t.Fatal(err)
		}
		saved = append(saved, res.DedupStats.WireSavedBytes)
		uniqueFrac = append(uniqueFrac, res.DedupStats.UniqueFraction())
	}
	if !metrics.Monotone(saved, +1, 0) {
		t.Fatalf("wire bytes saved not monotone in skew: %v", saved)
	}
	if !metrics.Monotone(uniqueFrac, -1, 0) {
		t.Fatalf("unique fraction not decreasing in skew: %v", uniqueFrac)
	}
}

// Single-GPU deduped runs (no off-diagonal pairs) must still work.
func TestDedupSingleGPUMatchesReference(t *testing.T) {
	single := dedupTestConfig(1)
	sys, err := NewSystem(single, DefaultHardware())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(&PGASFused{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Reference(sys, res.LastBatch)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(res.Final[0], ref[0]) {
		t.Fatal("single-GPU deduped output differs from reference")
	}
}

// Timing-mode runs draw each table of every batch into one reused scratch
// bag and keep only the compiled plan. The plan must own its records: a
// batch's pair and node records, prefix sums and hit prefixes read the same
// after the next batch is drawn over the scratch bag as right after their
// compile, and the residency hits, which are scratch too, are not kept.
func TestTimingPlanOutlivesScratchBatch(t *testing.T) {
	cfg := dedupTestConfig(3)
	cfg.Functional = false
	cfg.CacheFraction = 0.003
	hw := DefaultHardware()
	hw.GPU.MemoryCapacity = 1 << 20
	sys, err := NewSystem(cfg, hw)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := func(p *RoutePlan) string {
		return fmt.Sprint(p.pairs, p.nodes, p.pooled, p.hitVecs, p.hitIdx)
	}
	discard := make([]int64, cfg.BatchSize)
	for i := 0; i < cfg.Batches; i++ {
		bd, err := sys.NextBatchData()
		if err != nil {
			t.Fatal(err)
		}
		if bd.Sparse != nil || !bd.Plan.resident {
			t.Fatalf("batch %d: timing batch keeps its input (%v) or ran no residency step", i, bd.Sparse != nil)
		}
		if bd.Plan.hit != nil {
			t.Fatalf("batch %d: timing plan keeps the residency bitmap, which the next batch redraws", i)
		}
		at := snapshot(bd.Plan)
		sys.gen.NextPoolingSums(func(int) []int64 { return discard })
		for f := 0; f < cfg.TotalTables; f++ {
			sys.gen.Feature(f, &sys.planScr.bag)
		}
		if snapshot(bd.Plan) != at {
			t.Fatalf("batch %d: the compiled plan changed when the next batch was drawn over the scratch bag", i)
		}
	}
	if sys.Caches.Stats().Hits == 0 {
		t.Fatal("cache saw no hits; the residency hits are not exercised")
	}
}
