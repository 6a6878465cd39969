package experiments

import (
	"context"
	"reflect"
	"testing"

	"pgasemb/internal/metrics"
	"pgasemb/internal/retrieval"
	"pgasemb/internal/serve"
	"pgasemb/internal/sim"
)

func chaosTestOptions() ChaosOptions {
	base := servingTestBase()
	hw := servingTestHW()
	return ChaosOptions{
		Profiles: []string{"none", "straggler"},
		Replicas: []int{1, 2},
		Sweep:    Sweep{Backends: []retrieval.Backend{&retrieval.Baseline{}, &retrieval.PGASFused{}}},
		Rate:     2400,
		Duration: 200 * sim.Millisecond,
		Base:     &base,
		HW:       &hw,
		Serve:    serve.Config{MaxWait: 2 * sim.Millisecond},
	}
}

// The chaos sweep must be byte-identical at any worker count: parallelism
// changes wall-clock time, never the table.
func TestChaosDeterministicAcrossParallelism(t *testing.T) {
	var results []*ChaosResult
	var renders []string
	for _, parallel := range []int{1, 4} {
		o := chaosTestOptions()
		o.Parallel = parallel
		res, err := RunChaos(context.Background(), o)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
		renders = append(renders, res.Table().CSV()+res.Table().Render())
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Fatalf("chaos sweep differs between Parallel=1 and Parallel=4:\n%+v\nvs\n%+v",
			results[0], results[1])
	}
	if renders[0] != renders[1] {
		t.Fatalf("chaos table differs between Parallel=1 and Parallel=4:\n%s\nvs\n%s",
			renders[0], renders[1])
	}
}

// Sanity on the sweep's content: every point serves traffic, the grid is
// ordered backend-major, the healthy control is fully available, and the
// straggler profile costs the collective baseline tail latency.
func TestChaosSweepContent(t *testing.T) {
	opts := chaosTestOptions()
	res, err := RunChaos(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	wantPoints := len(opts.Backends) * len(opts.Profiles) * len(opts.Replicas)
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
	o := chaosTestOptions()
	o.Replicas = []int{0}
	if _, err := RunChaos(context.Background(), o); err == nil {
		t.Fatal("replica count 0 accepted")
	}
	o = chaosTestOptions()
	o.Profiles = []string{"nope"}
	if _, err := RunChaos(context.Background(), o); err == nil {
		t.Fatal("unknown fault profile accepted")
	}
}
