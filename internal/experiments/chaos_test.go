package experiments

import (
	"testing"

	"pgasemb/internal/metrics"
	"pgasemb/internal/retrieval"
	"pgasemb/internal/serve"
	"pgasemb/internal/sim"
)

// chaosTestSweep is a small chaos sweep of both backends on the small
// serving workload, 2400 requests/s for 200 simulated ms per point.
func chaosTestSweep(profiles []string, replicas []int) (sweep[*ChaosResult], error) {
	return chaosSweep(profiles, replicas, servingTestBase(), servingTestHW(),
		serve.Config{Rate: 2400, Duration: 200 * sim.Millisecond, MaxWait: 2 * sim.Millisecond},
		[]retrieval.Backend{&retrieval.Baseline{}, &retrieval.PGASFused{}})
}

// Sanity on the sweep's content: every point serves traffic, the grid is
// ordered backend-major, the healthy control is fully available, and the
// straggler profile costs the collective baseline tail latency.
func TestChaosSweepContent(t *testing.T) {
	s, err := chaosTestSweep([]string{"none", "straggler"}, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	res := runSweep(t, s)
	wantPoints := 2 * 2 * 2
	if len(res.Points) != wantPoints {
		t.Fatalf("%d points, want %d", len(res.Points), wantPoints)
	}
	find := func(backend, profile string, replicas int) ChaosPoint {
		for _, p := range res.Points {
			if p.Backend == backend && p.Profile == profile && p.Replicas == replicas {
				return p
			}
		}
		t.Fatalf("point (%s, %s, %d) missing", backend, profile, replicas)
		return ChaosPoint{}
	}
	for _, p := range res.Points {
		if p.Completed == 0 {
			t.Errorf("point (%s, %s, %d) completed nothing", p.Backend, p.Profile, p.Replicas)
		}
		if p.Availability <= 0 || p.Availability > 1 {
			t.Errorf("point (%s, %s, %d) availability %g outside (0, 1]",
				p.Backend, p.Profile, p.Replicas, p.Availability)
		}
		if p.P99 < p.P50 {
			t.Errorf("point (%s, %s, %d) p99 %g below p50 %g",
				p.Backend, p.Profile, p.Replicas, float64(p.P99), float64(p.P50))
		}
	}
	healthy := find("baseline", "none", 1)
	if healthy.Availability != 1 {
		t.Errorf("healthy baseline availability %g, want 1", healthy.Availability)
	}
	if healthy.Resilience != (metrics.RetryCounters{}) {
		t.Errorf("healthy baseline has nonzero resilience counters: %+v", healthy.Resilience)
	}
	straggled := find("baseline", "straggler", 1)
	if straggled.P99 <= healthy.P99 {
		t.Errorf("straggler did not raise baseline p99: %g <= %g",
			float64(straggled.P99), float64(healthy.P99))
	}
}

// Invalid sweeps are configuration errors, not silent empty tables.
func TestChaosValidation(t *testing.T) {
	if _, err := chaosTestSweep([]string{"none"}, []int{0}); err == nil {
		t.Fatal("replica count 0 accepted")
	}
	if _, err := chaosTestSweep([]string{"nope"}, []int{1}); err == nil {
		t.Fatal("unknown fault profile accepted")
	}
}
