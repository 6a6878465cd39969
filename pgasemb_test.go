package pgasemb_test

import (
	"context"
	"testing"

	"pgasemb"
)

// The root tests exercise the public facade end to end: everything an
// adopter would touch from the README quickstart.

func TestPublicAPISystemRun(t *testing.T) {
	sys, err := pgasemb.NewSystem(pgasemb.TestScaleConfig(2), pgasemb.DefaultHardware())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(pgasemb.NewPGASFused())
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTime <= 0 {
		t.Fatal("run produced no time")
	}
	if res.Backend != "pgas-fused" {
		t.Fatalf("backend name %q", res.Backend)
	}
}

func TestPublicAPIBackendsDiffer(t *testing.T) {
	cfg := pgasemb.WeakScalingConfig(2)
	cfg.Batches = 2
	run := func(b pgasemb.Backend) float64 {
		sys, err := pgasemb.NewSystem(cfg, pgasemb.DefaultHardware())
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(b)
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalTime
	}
	base := run(pgasemb.NewBaseline())
	pgas := run(pgasemb.NewPGASFused())
	unpackOnly := run(pgasemb.NewUnpackOnlyAblation())
	overlapOnly := run(pgasemb.NewOverlapOnlyAblation())
	if pgas >= base {
		t.Fatalf("PGAS (%v) not faster than baseline (%v)", pgas, base)
	}
	// Each ablation removes only one of the two mechanisms, so each sits
	// between full PGAS and the baseline.
	if !(pgas < unpackOnly && unpackOnly < base) {
		t.Errorf("unpack-only ablation out of order: pgas=%v a1=%v base=%v", pgas, unpackOnly, base)
	}
	if !(pgas < overlapOnly && overlapOnly < base) {
		t.Errorf("overlap-only ablation out of order: pgas=%v a2=%v base=%v", pgas, overlapOnly, base)
	}
}

func TestPublicAPIExperimentHarness(t *testing.T) {
	res, err := pgasemb.RunScaling(context.Background(), pgasemb.WeakScaling, pgasemb.ExperimentOptions{Batches: 2, MaxGPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.SpeedupTable().Render(); got == "" {
		t.Fatal("empty table render")
	}
	if s := res.Point(2).Speedup(); s <= 1 {
		t.Fatalf("speedup %v", s)
	}
}

func TestPublicAPIPipeline(t *testing.T) {
	pl, err := pgasemb.NewPipeline(pgasemb.TestScaleConfig(2), pgasemb.DefaultHardware(), pgasemb.NewPGASFused())
	if err != nil {
		t.Fatal(err)
	}
	res, err := pl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Predictions) != 2 {
		t.Fatalf("predictions for %d GPUs", len(res.Predictions))
	}
}

func TestPublicAPIAggregated(t *testing.T) {
	sys, err := pgasemb.NewSystem(pgasemb.TestScaleConfig(2), pgasemb.DefaultHardware())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(pgasemb.NewAggregatedPGAS(pgasemb.AggregatorConfig{FlushBytes: 4096, MaxWait: 1e-3}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "pgas-aggregated" {
		t.Fatalf("backend name %q", res.Backend)
	}
}

func TestPublicAPIMultiNodeDivisibility(t *testing.T) {
	// 3 GPUs cannot split across 2 nodes: rejected at system construction
	// with an error, never a panic.
	cfg := pgasemb.TestScaleConfig(3)
	if _, err := pgasemb.NewSystem(cfg, pgasemb.ClusterHardware(2)); err == nil {
		t.Fatal("indivisible multi-node GPU count accepted")
	}
	// Divisible counts still work.
	cfg4 := pgasemb.TestScaleConfig(4)
	sys, err := pgasemb.NewSystem(cfg4, pgasemb.ClusterHardware(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(pgasemb.NewPGASFused()); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPISpecReuse(t *testing.T) {
	// One spec, many runs: the spec/run split behind concurrent sweeps.
	spec, err := pgasemb.NewSystemSpec(pgasemb.TestScaleConfig(2), pgasemb.DefaultHardware())
	if err != nil {
		t.Fatal(err)
	}
	var times []float64
	for i := 0; i < 2; i++ {
		sys, err := spec.NewRun()
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(pgasemb.NewPGASFused())
		if err != nil {
			t.Fatal(err)
		}
		times = append(times, res.TotalTime)
	}
	if times[0] != times[1] {
		t.Fatalf("same-spec runs differ: %v vs %v", times[0], times[1])
	}
}
