package retrieval

import (
	"testing"

	"pgasemb/internal/fault"
	"pgasemb/internal/gpu"
)

func TestA100ParamsValid(t *testing.T) {
	if err := gpu.A100Params().Validate(); err != nil {
		t.Fatal(err)
	}
	v, a := gpu.V100Params(), gpu.A100Params()
	if a.HBMBandwidth <= v.HBMBandwidth || a.MemoryCapacity <= v.MemoryCapacity {
		t.Fatal("A100 should be uniformly bigger than V100")
	}
}

func TestPGASAdvantageSurvivesA100(t *testing.T) {
	// The paper's conclusion is about communication structure, not the V100
	// balance point: on an A100-class machine (1.7x compute, 2x links) the
	// PGAS scheme must still win clearly, and everything must run faster in
	// absolute terms.
	cfg := WeakScalingConfig(4)
	cfg.Batches = 3
	run := func(hw HardwareParams, b Backend) float64 {
		s, err := NewSystem(cfg, hw)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(b)
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalTime
	}
	v100Base := run(DefaultHardware(), &Baseline{})
	v100PGAS := run(DefaultHardware(), &PGASFused{})
	a100Base := run(A100Hardware(), &Baseline{})
	a100PGAS := run(A100Hardware(), &PGASFused{})

	if a100PGAS >= v100PGAS || a100Base >= v100Base {
		t.Fatalf("A100 not faster in absolute terms: base %v->%v, pgas %v->%v",
			v100Base, a100Base, v100PGAS, a100PGAS)
	}
	speedup := a100Base / a100PGAS
	if speedup < 1.5 {
		t.Fatalf("PGAS advantage collapsed on A100: %.2fx", speedup)
	}
}

func TestA100FitsBiggerShards(t *testing.T) {
	// 40 GB admits a 136-table shard that a V100 rejects.
	cfg := WeakScalingConfig(1)
	cfg.TotalTables = 136
	cfg.Batches = 1
	if _, err := NewSystem(cfg, DefaultHardware()); err == nil {
		t.Fatal("136 tables should not fit a 32 GB V100")
	}
	if _, err := NewSystem(cfg, A100Hardware()); err != nil {
		t.Fatalf("136 tables should fit a 40 GB A100: %v", err)
	}
}

// degradedHW is a DGX Station in which the 0-1 pair runs at half its
// bandwidth in both directions, as if it lost one of its two NVLink links —
// a realistic partial failure.
func degradedHW() HardwareParams {
	hw := DefaultHardware()
	hw.Faults = &fault.Schedule{Events: []fault.Event{
		{Kind: fault.LinkDegrade, Src: 0, Dst: 1, Factor: 0.5},
		{Kind: fault.LinkDegrade, Src: 1, Dst: 0, Factor: 0.5},
	}}
	return hw
}

func TestDegradedLinkToleratedByPGAS(t *testing.T) {
	// Failure injection: halve the 0-1 link. The PGAS scheme's traffic to
	// that peer was using a small fraction of the wire, so the degradation
	// hides under compute; the run must barely slow down.
	cfg := WeakScalingConfig(4)
	cfg.Batches = 3
	run := func(hw HardwareParams) float64 {
		s, err := NewSystem(cfg, hw)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(&PGASFused{})
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalTime
	}
	healthy := run(DefaultHardware())
	degraded := run(degradedHW())
	if degraded < healthy {
		t.Fatalf("degradation made the run faster: %v vs %v", degraded, healthy)
	}
	if degraded > 1.05*healthy {
		t.Fatalf("PGAS should absorb a half-degraded link: %v vs %v (%.1f%% slower)",
			degraded, healthy, 100*(degraded/healthy-1))
	}
	// Functional correctness is untouched by link failures.
	fcfg := TestScaleConfig(4)
	fs, err := NewSystem(fcfg, degradedHW())
	if err != nil {
		t.Fatal(err)
	}
	res, err := fs.Run(&PGASFused{})
	if err != nil {
		t.Fatal(err)
	}
	want := mustReference(t, fs, res.LastBatch)
	for g := range want {
		if res.Final[g].Data()[0] != want[g].Data()[0] {
			t.Fatal("degraded fabric corrupted results")
		}
	}
}
