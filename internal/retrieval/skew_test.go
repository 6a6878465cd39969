package retrieval

import (
	"slices"
	"sort"
	"testing"

	"pgasemb/internal/tensor"
)

// skewedConfig makes 1/8 of the tables 16x hotter than the rest — the
// heterogeneous feature population real recommenders have.
func skewedConfig(gpus int) Config {
	cfg := WeakScalingConfig(gpus)
	cfg.Batches = 3
	cfg.PerFeatureMaxPooling = SkewedPooling(cfg.TotalTables, 0.125, 256, 16)
	return cfg
}

func TestSkewedPoolingVector(t *testing.T) {
	v := SkewedPooling(8, 0.25, 100, 10)
	if len(v) != 8 || v[0] != 100 || v[1] != 100 || v[2] != 10 || v[7] != 10 {
		t.Fatalf("skew vector wrong: %v", v)
	}
}

func runSkew(t *testing.T, cfg Config, b Backend) *Result {
	t.Helper()
	s, err := NewSystem(cfg, DefaultHardware())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(b)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestGreedyPlanBeatsBlockPlanUnderSkew(t *testing.T) {
	// With hot tables clustered at low feature IDs, the block plan dumps
	// them all on GPU 0, whose kernel becomes the straggler every batch.
	// The greedy planner spreads them, shrinking the makespan.
	cfg := skewedConfig(4)
	block := runSkew(t, cfg, &PGASFused{})
	cfgG := cfg
	cfgG.GreedyPlan = true
	greedy := runSkew(t, cfgG, &PGASFused{})
	if greedy.TotalTime >= block.TotalTime {
		t.Fatalf("greedy plan (%v) not faster than block plan (%v) under skew",
			greedy.TotalTime, block.TotalTime)
	}
	improvement := block.TotalTime / greedy.TotalTime
	if improvement < 1.2 {
		t.Fatalf("greedy improvement only %.2fx; straggler effect should be large", improvement)
	}
}

func TestGreedyPlanNeutralWithoutSkew(t *testing.T) {
	// Uniform features: both planners produce equally balanced shards.
	cfg := WeakScalingConfig(2)
	cfg.Batches = 2
	block := runSkew(t, cfg, &PGASFused{})
	cfgG := cfg
	cfgG.GreedyPlan = true
	greedy := runSkew(t, cfgG, &PGASFused{})
	diff := greedy.TotalTime - block.TotalTime
	if diff < 0 {
		diff = -diff
	}
	if diff > 0.02*block.TotalTime {
		t.Fatalf("greedy plan should be neutral without skew: %v vs %v",
			greedy.TotalTime, block.TotalTime)
	}
}

func TestSkewedFunctionalCorrectness(t *testing.T) {
	// Heterogeneous pooling with the greedy plan still matches the serial
	// reference bit-exactly.
	cfg := TestScaleConfig(3)
	cfg.PerFeatureMaxPooling = SkewedPooling(cfg.TotalTables, 0.34, 9, 2)
	cfg.GreedyPlan = true
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
			t.Fatalf("GPU %d differs from reference under skew + greedy plan", g)
		}
	}
}

// The skewed greedy plan interleaves hot and cold tables across GPUs, so
// every registered backend must still match the serial reference on it.
func TestGreedyPlanMatchesReferenceOnEveryBackend(t *testing.T) {
	cfg := TestScaleConfig(3)
	cfg.PerFeatureMaxPooling = SkewedPooling(cfg.TotalTables, 0.34, 9, 2)
	cfg.GreedyPlan = true
	for _, name := range RegisteredBackends() {
		t.Run(name, func(t *testing.T) {
			s, err := NewSystem(cfg, DefaultHardware())
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
			want := mustReference(t, s, res.LastBatch)
			for g := range want {
				if !tensor.Equal(res.Final[g], want[g]) {
					t.Fatalf("GPU %d differs from reference (max diff %g)",
						g, tensor.MaxAbsDiff(res.Final[g], want[g]))
				}
			}
		})
	}
}

// listSchedule is the rule the greedy planner follows: tables in descending
// load, ties to the lower id, each onto the least-loaded GPU, ties to the
// lower index.
func listSchedule(loads []float64, gpus int) [][]int {
	order := make([]int, len(loads))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return loads[order[a]] > loads[order[b]] })
	plan := make([][]int, gpus)
	sums := make([]float64, gpus)
	for _, id := range order {
		best := 0
		for g := 1; g < gpus; g++ {
			if sums[g] < sums[best] {
				best = g
			}
		}
		plan[best] = append(plan[best], id)
		sums[best] += loads[id]
	}
	return plan
}

// The greedy plan is list scheduling over the analytic pooling loads, GPU by
// GPU and in assignment order, so greedy placement results reproduce exactly.
func TestGreedyPlanIsListScheduling(t *testing.T) {
	skewed := func(gpus int, hot float64) Config {
		cfg := TestScaleConfig(gpus)
		cfg.TotalTables = 12
		cfg.PerFeatureMaxPooling = SkewedPooling(cfg.TotalTables, hot, 9, 2)
		return cfg
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"uniform-gpus1", TestScaleConfig(1)},
		{"uniform-gpus2", TestScaleConfig(2)},
		{"uniform-gpus4", TestScaleConfig(4)},
		{"uniform-one-table-per-gpu", TestScaleConfig(6)},
		{"skewed-gpus2", skewed(2, 0.25)},
		{"skewed-gpus3", skewed(3, 0.34)},
		{"skewed-gpus5", skewed(5, 0.5)},
		{"weak-scaling-skewed-gpus4", skewedConfig(4)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			cfg.GreedyPlan = true
			spec, err := NewSystemSpec(cfg, DefaultHardware())
			if err != nil {
				t.Fatal(err)
			}
			got := spec.Plan()
			want := listSchedule(cfg.WorkloadConfig().ExpectedPoolingLoad(), cfg.GPUs)
			if len(got) != len(want) {
				t.Fatalf("plan has %d shards, want %d", len(got), len(want))
			}
			for g := range want {
				if !slices.Equal(got[g], want[g]) {
					t.Fatalf("GPU %d shard %v, want %v (plan %v)", g, got[g], want[g], got)
				}
			}
		})
	}
}

func TestPerFeaturePoolingValidation(t *testing.T) {
	cfg := TestScaleConfig(2)
	cfg.PerFeatureMaxPooling = []int{1, 2} // wrong length
	if _, err := NewSystem(cfg, DefaultHardware()); err == nil {
		t.Fatal("wrong-length PerFeatureMaxPooling accepted")
	}
}
