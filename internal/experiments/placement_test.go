package experiments

import (
	"testing"

	"pgasemb/internal/retrieval"
	"pgasemb/internal/workload"
)

// placementTestSweep is a small graded-skew placement sweep of both
// backends over policies, at Zipf 1.2 with a rebalancing epoch of 3
// batches.
func placementTestSweep(policies []string) (sweep[*PlacementResult], error) {
	base := retrieval.Config{
		GPUs:                 4,
		TotalTables:          16,
		Rows:                 512,
		Dim:                  16,
		BatchSize:            128,
		MinPooling:           1,
		MaxPooling:           4,
		PerFeatureMaxPooling: []int{64, 64, 16, 16, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4},
		Batches:              12,
		Seed:                 2024,
		ChunksPerKernel:      4,
		Distribution:         workload.Zipf,
	}
	return placementSweep(policies, []float64{1.2}, 3, base, retrieval.DefaultHardware(),
		[]retrieval.Backend{&retrieval.Baseline{}, &retrieval.PGASFused{}})
}

// Sanity on the sweep's content: the grid is complete, every point tracks
// owner load, static is its own speedup unit, the adaptive policies actually
// rebalance, and on the skewed workload they end better balanced than the
// static plan.
func TestPlacementSweepContent(t *testing.T) {
	s, err := placementTestSweep(PlacementPolicies)
	if err != nil {
		t.Fatal(err)
	}
	res := runSweep(t, s)
	wantPoints := 2 * len(PlacementPolicies)
	if len(res.Points) != wantPoints {
		t.Fatalf("%d points, want %d", len(res.Points), wantPoints)
	}
	find := func(backend, policy string) PlacementPoint {
		for _, p := range res.Points {
			if p.Backend == backend && p.Policy == policy {
				return p
			}
		}
		t.Fatalf("point (%s, %s) missing", backend, policy)
		return PlacementPoint{}
	}
	for _, p := range res.Points {
		if p.TotalTime <= 0 {
			t.Errorf("point (%s, %s) has no simulated time", p.Backend, p.Policy)
		}
		if p.MaxOwnerKeys <= 0 || p.Imbalance < 1 {
			t.Errorf("point (%s, %s) tracked no owner load (max %d, imbalance %g)",
				p.Backend, p.Policy, p.MaxOwnerKeys, p.Imbalance)
		}
		switch p.Policy {
		case "static":
			if p.Speedup != 1 {
				t.Errorf("static point (%s) speedup %g, want 1", p.Backend, p.Speedup)
			}
			fallthrough
		case "greedy":
			if p.Rebalances != 0 || p.MigratedBytes != 0 {
				t.Errorf("non-adaptive point (%s, %s) reports rebalancing: %d swaps, %g bytes",
					p.Backend, p.Policy, p.Rebalances, p.MigratedBytes)
			}
		}
	}
	for _, backend := range []string{"baseline", "pgas-fused"} {
		static := find(backend, "static")
		for _, policy := range []string{"adaptive", "adaptive+mirror"} {
			p := find(backend, policy)
			if p.Rebalances == 0 && p.MigratedBytes == 0 {
				t.Errorf("%s %s never rebalanced on the skewed workload", backend, policy)
			}
			if p.MaxOwnerKeys >= static.MaxOwnerKeys {
				t.Errorf("%s %s max owner keys %d not below static %d",
					backend, policy, p.MaxOwnerKeys, static.MaxOwnerKeys)
			}
			if p.Imbalance >= static.Imbalance {
				t.Errorf("%s %s imbalance %.3f not below static %.3f",
					backend, policy, p.Imbalance, static.Imbalance)
			}
		}
	}
}

// Invalid sweeps are configuration errors, not silent empty tables.
func TestPlacementValidation(t *testing.T) {
	if _, err := placementTestSweep([]string{"nope"}); err == nil {
		t.Fatal("unknown placement policy accepted")
	}
}
