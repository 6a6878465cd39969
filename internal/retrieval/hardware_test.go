package retrieval

import (
	"testing"

	"pgasemb/internal/fault"
	"pgasemb/internal/sim"
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

// TestMoreBandwidthNeverSlowsARun is a metamorphic check on the whole model:
// raising the NVLink or the NIC bandwidth (x1.5, x2, x4) never raises a
// run's simulated time. It runs every registered backend, with and without
// dedup and the cache, on one node, on two nodes, and on a 4×4 cluster at a
// small batch, where every remote node can be node-staged. Route pricing
// reads the bandwidths, so a faster wire may change the plan; the new plan
// must not lose what the faster wire gave.
func TestMoreBandwidthNeverSlowsARun(t *testing.T) {
	type machine struct {
		name string
		hw   HardwareParams
		cfg  Config
	}
	small := MultiNodeConfig(4, 4)
	small.BatchSize = 512
	small.Batches = 1
	machines := []machine{
		{"single", DefaultHardware(), clusterTestConfig(4)},
		{"cluster2", ClusterHardware(2), clusterTestConfig(4)},
		{"cluster4x4", ClusterHardware(4), small},
	}
	wires := []struct {
		name  string
		scale func(hw *HardwareParams, f float64)
	}{
		{"nvlink", func(hw *HardwareParams, f float64) { hw.Link.LinkBandwidth *= f }},
		{"nic", func(hw *HardwareParams, f float64) { hw.NIC.Bandwidth *= f }},
	}
	for _, name := range RegisteredBackends() {
		for _, m := range machines {
			for _, dedup := range []bool{false, true} {
				for _, cached := range []bool{false, true} {
					cfg := m.cfg
					cfg.Functional = false
					cfg.Dedup = dedup
					if cached {
						cfg.CacheFraction = 1e-8 // a handful of slots
					}
					run := func(hw HardwareParams) sim.Duration {
						s, err := NewSystem(cfg, hw)
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
						return res.TotalTime
					}
					base := run(m.hw)
					for _, w := range wires {
						for _, f := range []float64{1.5, 2, 4} {
							hw := m.hw.normalized()
							w.scale(&hw, f)
							if got := run(hw); got > base {
								t.Errorf("%s/%s/dedup=%v/cache=%v: %s bandwidth x%g takes %v, slower than %v",
									name, m.name, dedup, cached, w.name, f, got, base)
							}
						}
					}
				}
			}
		}
	}
}
