package retrieval

import (
	"testing"

	"pgasemb/internal/fault"
)

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
