package retrieval_test

import (
	"fmt"
	"testing"

	"pgasemb/internal/retrieval"
)

// The external tests exercise the package from outside, the way the
// commands and examples use it.

func TestPublicAPISystemRun(t *testing.T) {
	sys, err := retrieval.NewSystem(retrieval.TestScaleConfig(2), retrieval.DefaultHardware())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(&retrieval.PGASFused{})
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
	cfg := retrieval.WeakScalingConfig(2)
	cfg.Batches = 2
	run := func(b retrieval.Backend) float64 {
		sys, err := retrieval.NewSystem(cfg, retrieval.DefaultHardware())
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(b)
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalTime
	}
	base := run(&retrieval.Baseline{})
	pgas := run(&retrieval.PGASFused{})
	unpackOnly := run(&retrieval.Baseline{DirectPlacement: true})
	overlapOnly := run(&retrieval.PGASFused{StageRemote: true})
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

func TestPublicAPIAggregated(t *testing.T) {
	sys, err := retrieval.NewSystem(retrieval.TestScaleConfig(2), retrieval.DefaultHardware())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(&retrieval.PGASFused{Aggregate: &retrieval.AggregatorConfig{FlushBytes: 4096, MaxWait: 1e-3}})
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
	cfg := retrieval.TestScaleConfig(3)
	if _, err := retrieval.NewSystem(cfg, retrieval.ClusterHardware(2)); err == nil {
		t.Fatal("indivisible multi-node GPU count accepted")
	}
	// Divisible counts still work.
	cfg4 := retrieval.TestScaleConfig(4)
	sys, err := retrieval.NewSystem(cfg4, retrieval.ClusterHardware(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(&retrieval.PGASFused{}); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPISpecReuse(t *testing.T) {
	// One spec, many runs: the spec/run split behind concurrent sweeps.
	spec, err := retrieval.NewSystemSpec(retrieval.TestScaleConfig(2), retrieval.DefaultHardware())
	if err != nil {
		t.Fatal(err)
	}
	var times []float64
	for i := 0; i < 2; i++ {
		sys, err := spec.NewRun()
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(&retrieval.PGASFused{})
		if err != nil {
			t.Fatal(err)
		}
		times = append(times, res.TotalTime)
	}
	if times[0] != times[1] {
		t.Fatalf("same-spec runs differ: %v vs %v", times[0], times[1])
	}
}

// ExampleNewSystem runs both communication schemes on a small functional
// configuration and verifies they agree.
func ExampleNewSystem() {
	cfg := retrieval.TestScaleConfig(2)
	var outputs [][]float32
	for _, backend := range []retrieval.Backend{&retrieval.Baseline{}, &retrieval.PGASFused{}} {
		sys, err := retrieval.NewSystem(cfg, retrieval.DefaultHardware())
		if err != nil {
			panic(err)
		}
		res, err := sys.Run(backend)
		if err != nil {
			panic(err)
		}
		outputs = append(outputs, res.Final[0].Data())
	}
	identical := true
	for i := range outputs[0] {
		if outputs[0][i] != outputs[1][i] {
			identical = false
		}
	}
	fmt.Println("outputs identical:", identical)
	// Output: outputs identical: true
}

// ExampleAggregatorConfig shows the future-work aggregator reducing header
// overhead to nearly nothing.
func ExampleAggregatorConfig() {
	cfg := retrieval.TestScaleConfig(2)
	sys, err := retrieval.NewSystem(cfg, retrieval.DefaultHardware())
	if err != nil {
		panic(err)
	}
	backend := &retrieval.PGASFused{Aggregate: &retrieval.AggregatorConfig{FlushBytes: 16 << 10, MaxWait: 1e-3}}
	if _, err := sys.Run(backend); err != nil {
		panic(err)
	}
	pe := sys.PGAS.PE(0)
	aggOverhead := (pe.WireBytes() - pe.PayloadBytes()) / pe.PayloadBytes()

	sys2, err := retrieval.NewSystem(cfg, retrieval.DefaultHardware())
	if err != nil {
		panic(err)
	}
	if _, err := sys2.Run(&retrieval.PGASFused{}); err != nil {
		panic(err)
	}
	pe2 := sys2.PGAS.PE(0)
	directOverhead := (pe2.WireBytes() - pe2.PayloadBytes()) / pe2.PayloadBytes()

	fmt.Println("aggregation cuts header overhead:", aggOverhead < directOverhead/10)
	// Output: aggregation cuts header overhead: true
}
