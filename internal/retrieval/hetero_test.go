package retrieval

import (
	"testing"
	"testing/quick"

	"pgasemb/internal/sim"
	"pgasemb/internal/tensor"
)

// A skewed pooling profile makes the greedy planner interleave table IDs
// across GPUs; every backend must still restore global feature order (the
// baseline through its rank-ordered unpack).
func TestInterleavedPlanFunctionalCorrectness(t *testing.T) {
	cfg := TestScaleConfig(2)
	cfg.PerFeatureMaxPooling = SkewedPooling(cfg.TotalTables, 0.34, 9, 2)
	cfg.GreedyPlan = true
	spec, err := NewSystemSpec(cfg, DefaultHardware())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range RegisteredBackends() {
		t.Run(name, func(t *testing.T) {
			s, err := spec.NewRun()
			if err != nil {
				t.Fatal(err)
			}
			contiguous := true
			for _, shard := range s.Plan {
				for i := 1; i < len(shard); i++ {
					contiguous = contiguous && shard[i] == shard[i-1]+1
				}
			}
			if contiguous {
				t.Fatalf("greedy plan %v is contiguous: the interleaved case goes untested", s.Plan)
			}
			be, err := NewBackendByName(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run(be)
			if err != nil {
				t.Fatal(err)
			}
			want := mustReference(t, s, res.LastBatch)
			for g := range want {
				if !tensor.Equal(res.Final[g], want[g]) {
					t.Fatalf("GPU %d differs under interleaved plan %v", g, s.Plan)
				}
			}
		})
	}
}

// Property: for random small configurations, baseline and PGAS fused always
// produce identical outputs — the central correctness claim, fuzzed over
// the configuration space.
func TestBackendsAgreeOnRandomConfigsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		gpus := rng.IntRange(1, 4)
		cfg := Config{
			GPUs:            gpus,
			TotalTables:     rng.IntRange(gpus, 8),
			Rows:            rng.IntRange(2, 64),
			Dim:             rng.IntRange(1, 12),
			BatchSize:       rng.IntRange(gpus, 24),
			MinPooling:      0,
			MaxPooling:      rng.IntRange(0, 6),
			Batches:         1,
			Seed:            rng.Uint64(),
			ChunksPerKernel: rng.IntRange(1, 6),
			Functional:      true,
			NullProbability: rng.Float64() * 0.3,
		}
		if cfg.Validate() != nil {
			return true // skip invalid combos
		}
		run := func(b Backend) []*tensor.Tensor {
			s, err := NewSystem(cfg, DefaultHardware())
			if err != nil {
				t.Logf("seed %d: %v", seed, err)
				return nil
			}
			res, err := s.Run(b)
			if err != nil {
				t.Logf("seed %d: %v", seed, err)
				return nil
			}
			return res.Final
		}
		a := run(&Baseline{})
		b := run(&PGASFused{})
		if a == nil || b == nil {
			return false
		}
		for g := range a {
			if !tensor.Equal(a[g], b[g]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
