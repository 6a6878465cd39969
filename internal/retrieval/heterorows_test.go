package retrieval

import (
	"testing"
	"testing/quick"

	"pgasemb/internal/embedding"
	"pgasemb/internal/sim"
	"pgasemb/internal/tensor"
)

func TestPerFeatureRowsValidation(t *testing.T) {
	cfg := TestScaleConfig(2)
	cfg.PerFeatureRows = []int{1, 2} // wrong length
	if cfg.Validate() == nil {
		t.Fatal("wrong-length PerFeatureRows accepted")
	}
	cfg = TestScaleConfig(2)
	cfg.PerFeatureRows = []int{10, 10, 0, 10, 10, 10}
	if cfg.Validate() == nil {
		t.Fatal("zero-row table accepted")
	}
}

func TestCustomPlanValidation(t *testing.T) {
	bad := [][][]int{
		{{0, 1, 2}},               // wrong shard count for 2 GPUs
		{{0, 1, 2, 3, 4}, {4, 5}}, // duplicate
		{{0, 1, 2}, {3, 4}},       // incomplete (6 tables)
		{{0, 1, 2, 9}, {3, 4, 5}}, // out of range
	}
	for i, plan := range bad {
		cfg := TestScaleConfig(2)
		cfg.CustomPlan = plan
		if cfg.Validate() == nil {
			t.Errorf("bad plan %d accepted", i)
		}
	}
}

func TestHeterogeneousRowsFunctional(t *testing.T) {
	cfg := TestScaleConfig(3)
	cfg.PerFeatureRows = []int{4, 400, 16, 1000, 8, 64}
	s, err := NewSystem(cfg, DefaultHardware())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(&PGASFused{})
	if err != nil {
		t.Fatal(err)
	}
	want := mustReference(t, s, res.LastBatch)
	for g := range want {
		if !tensor.Equal(res.Final[g], want[g]) {
			t.Fatalf("GPU %d differs with heterogeneous table sizes", g)
		}
	}
}

func TestCustomPlanAvoidsOOM(t *testing.T) {
	// Two 12 GB tables plus four small ones on 2 GPUs: the block plan puts
	// both giants on GPU 0 (24 GB + outputs fits, so push to 3 giants)...
	// Use three 11 GB tables: block plan gives GPU 0 all three (33 GB:
	// over capacity); a memory-aware custom plan splits them.
	cfg := WeakScalingConfig(2)
	cfg.Functional = false
	cfg.TotalTables = 6
	giant := 11 << 30 / (cfg.Dim * 4) // rows for an 11 GB table
	cfg.PerFeatureRows = []int{giant, giant, giant, 1000, 1000, 1000}
	if _, err := NewSystem(cfg, DefaultHardware()); err == nil {
		t.Fatal("block plan should exceed 32 GB on GPU 0")
	}
	cfg.CustomPlan = [][]int{{0, 1, 3}, {2, 4, 5}} // 22 GB / 11 GB
	if _, err := NewSystem(cfg, DefaultHardware()); err != nil {
		t.Fatalf("memory-aware custom plan rejected: %v", err)
	}
}

func TestCustomPlanFunctionalCorrectness(t *testing.T) {
	cfg := TestScaleConfig(2)
	cfg.CustomPlan = [][]int{{5, 0, 3}, {2, 1, 4}}
	s, err := NewSystem(cfg, DefaultHardware())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(&Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	want := mustReference(t, s, res.LastBatch)
	for g := range want {
		if !tensor.Equal(res.Final[g], want[g]) {
			t.Fatalf("GPU %d differs under custom plan", g)
		}
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
			Pooling:         embedding.PoolingMode(rng.Intn(2)), // sum or mean
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
