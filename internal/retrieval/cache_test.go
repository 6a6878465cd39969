package retrieval

import (
	"math"
	"runtime"
	"testing"

	"pgasemb/internal/cache"
	"pgasemb/internal/tensor"
	"pgasemb/internal/workload"
)

// cacheTestConfig returns a small functional configuration with a skewed
// index stream, so the hot-row cache sees real hits at test scale.
func cacheTestConfig(gpus int) Config {
	cfg := TestScaleConfig(gpus)
	cfg.Batches = 5
	cfg.Distribution = workload.Zipf
	cfg.ZipfExponent = 1.5
	return cfg
}

// cacheTestHardware shrinks device memory so a small CacheFraction yields a
// partial cache (evictions happen) while still holding the tables.
func cacheTestHardware() HardwareParams {
	hw := DefaultHardware()
	hw.GPU.MemoryCapacity = 1 << 20
	return hw
}

// The headline acceptance test: with the cache enabled — including real
// evictions — every backend's gathered embeddings are bit-identical to the
// uncached run and to the serial reference.
func TestCachedRetrievalBitExact(t *testing.T) {
	for _, gpus := range []int{2, 3} {
		for _, mkBackend := range []func() Backend{
			func() Backend { return &Baseline{} },
			func() Backend { return &PGASFused{} },
			func() Backend { return &PGASFused{StageRemote: true} },
			func() Backend { return &Baseline{DirectPlacement: true} },
		} {
			cached := cacheTestConfig(gpus)
			cached.CacheFraction = 0.003
			hw := cacheTestHardware()

			cachedSys, err := NewSystem(cached, hw)
			if err != nil {
				t.Fatal(err)
			}
			cachedRes, err := cachedSys.Run(mkBackend())
			if err != nil {
				t.Fatal(err)
			}

			uncached := cached
			uncached.CacheFraction = 0
			uncachedSys, err := NewSystem(uncached, hw)
			if err != nil {
				t.Fatal(err)
			}
			uncachedRes, err := uncachedSys.Run(mkBackend())
			if err != nil {
				t.Fatal(err)
			}

			name := cachedRes.Backend
			stats := cachedSys.Caches.Stats()
			if stats.Hits == 0 {
				t.Fatalf("%s@%dgpu: cache saw no hits; test exercises nothing", name, gpus)
			}
			if stats.Evictions == 0 {
				t.Fatalf("%s@%dgpu: cache saw no evictions; capacity not stressed", name, gpus)
			}

			ref, err := Reference(cachedSys, cachedRes.LastBatch)
			if err != nil {
				t.Fatal(err)
			}
			for g := 0; g < gpus; g++ {
				if !tensor.Equal(cachedRes.Final[g], uncachedRes.Final[g]) {
					t.Fatalf("%s@%dgpu: GPU %d cached output differs from uncached", name, gpus, g)
				}
				if !tensor.Equal(cachedRes.Final[g], ref[g]) {
					t.Fatalf("%s@%dgpu: GPU %d cached output differs from reference", name, gpus, g)
				}
			}
		}
	}
}

// Timing-only and functional runs of the same cached configuration must
// report the same simulated times (to the 1e-9 tolerance the uncached
// invariant test uses — per-vector vs aggregated pipe offers accumulate in
// different float orders) — the cache must preserve the repo's
// one-code-path-two-modes invariant.
func TestCachedTimingMatchesFunctional(t *testing.T) {
	for _, mkBackend := range []func() Backend{
		func() Backend { return &Baseline{} },
		func() Backend { return &PGASFused{} },
	} {
		cfg := cacheTestConfig(2)
		cfg.CacheFraction = 0.003
		hw := cacheTestHardware()

		var times []float64
		var hits []int64
		for _, functional := range []bool{true, false} {
			c := cfg
			c.Functional = functional
			sys, err := NewSystem(c, hw)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.Run(mkBackend())
			if err != nil {
				t.Fatal(err)
			}
			times = append(times, float64(res.TotalTime))
			hits = append(hits, sys.Caches.Stats().Hits)
		}
		diff := times[0] - times[1]
		if diff < 0 {
			diff = -diff
		}
		if diff > 1e-9 {
			t.Fatalf("%s: functional time %g != timing-only time %g", mkBackend().Name(), times[0], times[1])
		}
		if hits[0] != hits[1] {
			t.Fatalf("%s: functional hits %d != timing-only hits %d", mkBackend().Name(), hits[0], hits[1])
		}
	}
}

// cacheSpeedConfig returns a timing-only skewed configuration where gather
// reads dominate, so the cache's effect on simulated time is visible.
func cacheSpeedConfig() Config {
	return Config{
		GPUs:            2,
		TotalTables:     8,
		Rows:            4096,
		Dim:             64,
		BatchSize:       256,
		MinPooling:      1,
		MaxPooling:      64,
		Batches:         3,
		Seed:            2024,
		ChunksPerKernel: 4,
		Distribution:    workload.Zipf,
		ZipfExponent:    1.2,
	}
}

// On a skewed stream the cache must make the PGAS backend strictly faster
// and never slow the baseline down.
func TestCacheReducesSimulatedTime(t *testing.T) {
	run := func(fraction float64, b Backend) float64 {
		cfg := cacheSpeedConfig()
		cfg.CacheFraction = fraction
		sys, err := NewSystem(cfg, DefaultHardware())
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(b)
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.TotalTime)
	}

	pgasCold := run(0, &PGASFused{})
	pgasWarm := run(0.0001, &PGASFused{})
	if pgasWarm >= pgasCold {
		t.Fatalf("pgas-fused: cached time %g >= uncached %g", pgasWarm, pgasCold)
	}
	baseCold := run(0, &Baseline{})
	baseWarm := run(0.0001, &Baseline{})
	if baseWarm > baseCold {
		t.Fatalf("baseline: cached time %g > uncached %g", baseWarm, baseCold)
	}
}

// Two same-seed cached runs must agree bit-exactly (determinism of the
// classification path), and CacheSlots must respect its caps.
func TestCacheDeterminismAndSlots(t *testing.T) {
	cfg := cacheTestConfig(2)
	cfg.CacheFraction = 0.003
	hw := cacheTestHardware()
	var totals []float64
	var stats []int64
	for i := 0; i < 2; i++ {
		sys, err := NewSystem(cfg, hw)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(&PGASFused{})
		if err != nil {
			t.Fatal(err)
		}
		totals = append(totals, float64(res.TotalTime))
		stats = append(stats, sys.Caches.Stats().Hits)
	}
	if totals[0] != totals[1] || stats[0] != stats[1] {
		t.Fatalf("same-seed cached runs diverged: times %v, hits %v", totals, stats)
	}

	// Slots derived from fraction × capacity, capped at the row population.
	small := cfg
	if got := small.CacheSlots(hw.GPU); got <= 0 {
		t.Fatalf("CacheSlots = %d for enabled cache", got)
	}
	big := cfg
	big.CacheFraction = 0.9
	population := big.TotalTables * big.Rows
	if got := big.CacheSlots(hw.GPU); got != population {
		t.Fatalf("CacheSlots = %d, want population cap %d", got, population)
	}
	off := cfg
	off.CacheFraction = 0
	if got := off.CacheSlots(hw.GPU); got != 0 {
		t.Fatalf("CacheSlots = %d for disabled cache", got)
	}
}

// A consumer reads a shard it holds a replica of from that replica, so the
// residency pass never probes its cache for one: with every shard on every
// GPU nothing probes at all, and a second replica leaves fewer probes than
// an unreplicated run.
func TestResidencySkipsReplicaHeldShards(t *testing.T) {
	probes := func(replicas int) int64 {
		t.Helper()
		cfg := cacheTestConfig(4)
		cfg.CacheFraction = 0.003
		cfg.Replicas = replicas
		sys, err := NewSystem(cfg, cacheTestHardware())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Run(&PGASFused{}); err != nil {
			t.Fatal(err)
		}
		st := sys.Caches.Stats()
		return st.Hits + st.Misses
	}
	if n := probes(4); n != 0 {
		t.Fatalf("fully replicated run probed the cache %d times (want 0)", n)
	}
	if one, two := probes(1), probes(2); two == 0 || two >= one {
		t.Fatalf("probes: %d with 2 replicas, %d unreplicated (want 0 < replicated < unreplicated)", two, one)
	}
}

// Misconfigurations must be rejected at validation time.
func TestCacheConfigValidation(t *testing.T) {
	cfg := TestScaleConfig(2)
	cfg.CacheFraction = 1.0
	if err := cfg.Validate(); err == nil {
		t.Fatal("CacheFraction 1.0 accepted")
	}
	cfg.CacheFraction = -0.1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative CacheFraction accepted")
	}
}

// A fresh serve-zipf-shaped cache set allocates its state bits — 2 bits per
// key of the 32 × 262,144-row key space, 2 MiB per GPU — and at most 4 KiB
// of headers: its 1.26M slots per GPU cost nothing until rows arrive.
func TestServingCacheSetBytes(t *testing.T) {
	cfg := ServingScaleConfig(4)
	cfg.CacheFraction = 0.01
	slots, rows := cfg.CacheSlots(DefaultHardware().GPU), cfg.RowCounts()
	// The least of a few measurements leaves out other goroutines' allocations.
	got := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		set := cache.NewSet(cfg.GPUs, slots, cfg.Dim, rows, false)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(set)
		got = min(got, after.TotalAlloc-before.TotalAlloc)
	}
	const state = 4 << 21
	if got < state || got > state+4096 {
		t.Fatalf("fresh %d-GPU set of %d slots allocated %d bytes, want %d of state bits plus at most 4 KiB",
			cfg.GPUs, slots, got, state)
	}
}

// A System wired onto another's machine shares its hot-row cache set, so the
// second System's batches run against a warm cache, and NewRunOn refuses a
// spec the machine's allocations or Zipf table do not cover.
func TestNewRunOnSharesMachine(t *testing.T) {
	cfg := cacheTestConfig(2)
	cfg.CacheFraction = 0.003
	hw := cacheTestHardware()
	spec, err := NewSystemSpec(cfg, hw)
	if err != nil {
		t.Fatal(err)
	}

	cold, err := spec.NewRun()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cold.Run(&PGASFused{}); err != nil {
		t.Fatal(err)
	}
	coldHits := cold.Caches.Stats().Hits

	warm, err := spec.NewRunOn(cold)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Caches != cold.Caches || warm.Env != cold.Env {
		t.Fatal("NewRunOn wired a System onto a machine of its own")
	}
	if _, err := warm.Run(&PGASFused{}); err != nil {
		t.Fatal(err)
	}
	warmHits := warm.Caches.Stats().Hits - coldHits
	if warmHits <= coldHits {
		t.Fatalf("warm run hits %d not above cold run hits %d", warmHits, coldHits)
	}

	half, err := spec.WithBatchSize(cfg.BatchSize / 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := half.NewRunOn(cold); err != nil {
		t.Fatalf("a smaller shape of the machine's spec was refused: %v", err)
	}
	if double, err := spec.WithBatchSize(2 * cfg.BatchSize); err == nil {
		if _, err := double.NewRunOn(cold); err == nil {
			t.Fatal("NewRunOn accepted a batch larger than the machine's allocations")
		}
	}
	other, err := NewSystemSpec(cfg, hw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.NewRunOn(cold); err == nil {
		t.Fatal("NewRunOn accepted a spec that shares no Zipf table with the machine's")
	}
}
