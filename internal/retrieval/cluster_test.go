package retrieval

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"pgasemb/internal/collective"
	"pgasemb/internal/fabric"
	"pgasemb/internal/gpu"
	"pgasemb/internal/nvlink"
	"pgasemb/internal/pgas"
	"pgasemb/internal/tensor"
	"pgasemb/internal/workload"
)

// clusterTestConfig is TestScaleConfig with a Zipf-skewed index stream, so
// the node-level dedup classifier actually finds repeated rows.
func clusterTestConfig(gpus int) Config {
	cfg := TestScaleConfig(gpus)
	cfg.Rows = 32
	cfg.Distribution = workload.Zipf
	cfg.ZipfExponent = 1.1
	return cfg
}

// The bit-exactness gate: every backend variant on a multi-node cluster must
// reproduce the single-node serial reference exactly — the fabric, proxy and
// node-dedup layers reroute traffic, never change data.
func TestClusterBitExactness(t *testing.T) {
	shapes := []struct {
		nodes, gpus int
	}{
		{2, 4},
		{3, 6},
	}
	backends := []Backend{&Baseline{}, &PGASFused{}, &PGASFused{StageRemote: true}}
	for _, sh := range shapes {
		for _, be := range backends {
			for _, dedup := range []bool{false, true} {
				for _, cached := range []bool{false, true} {
					name := fmt.Sprintf("%dnodes/%s", sh.nodes, be.Name())
					if dedup {
						name += "+dedup"
					}
					if cached {
						name += "+cache"
					}
					t.Run(name, func(t *testing.T) {
						cfg := clusterTestConfig(sh.gpus)
						cfg.Dedup = dedup
						if cached {
							cfg.CacheFraction = 1e-8 // a handful of slots
						}
						s, err := NewSystem(cfg, ClusterHardware(sh.nodes))
						if err != nil {
							t.Fatal(err)
						}
						res, err := s.Run(be)
						if err != nil {
							t.Fatal(err)
						}
						want := mustReference(t, s, res.LastBatch)
						for g := 0; g < sh.gpus; g++ {
							if !tensor.Equal(res.Final[g], want[g]) {
								t.Fatalf("%d nodes, %s: GPU %d differs from reference (max diff %g)",
									sh.nodes, name, g, tensor.MaxAbsDiff(res.Final[g], want[g]))
							}
						}
					})
				}
			}
		}
	}
}

// Timing-only multi-node runs must finish at exactly the same simulated time
// as functional runs — the invariant that keeps paper-scale (timing) results
// trustworthy. Extends the single-node TestTimingModeMatchesFunctionalTiming.
func TestClusterTimingMatchesFunctional(t *testing.T) {
	for _, be := range []Backend{&Baseline{}, &PGASFused{}} {
		for _, dedup := range []bool{false, true} {
			run := func(functional bool) (*Result, float64, int64) {
				cfg := clusterTestConfig(4)
				cfg.Dedup = dedup
				cfg.Functional = functional
				s, err := NewSystem(cfg, ClusterHardware(2))
				if err != nil {
					t.Fatal(err)
				}
				res, err := s.Run(be)
				if err != nil {
					t.Fatal(err)
				}
				return res, res.NICPayloadBytes, res.NICMessages
			}
			fRes, fPayload, fMsgs := run(true)
			tRes, tPayload, tMsgs := run(false)
			if math.Abs(fRes.TotalTime-tRes.TotalTime) > 1e-9 {
				t.Errorf("%s dedup=%v: functional total %g != timing total %g",
					be.Name(), dedup, fRes.TotalTime, tRes.TotalTime)
			}
			if fPayload != tPayload || fMsgs != tMsgs {
				t.Errorf("%s dedup=%v: NIC traffic differs: functional %g B / %d msgs, timing %g B / %d msgs",
					be.Name(), dedup, fPayload, fMsgs, tPayload, tMsgs)
			}
		}
	}
}

// Every machine is a cluster: a zero node count means one node, so a
// HardwareParams literal, DefaultHardware() and ClusterHardware(1) normalize
// to the same machine, whose NICs carry nothing.
func TestZeroNodesIsOneNode(t *testing.T) {
	machines := []struct {
		name string
		hw   HardwareParams
	}{
		{"literal", HardwareParams{GPU: gpu.V100Params(), Link: nvlink.DefaultParams(), Collective: collective.DefaultParams()}},
		{"default", DefaultHardware()},
		{"cluster1", ClusterHardware(1)},
	}
	cfg := clusterTestConfig(4)
	cfg.Dedup = true
	want := ClusterHardware(1)
	want.NIC = fabric.DefaultNICParams()
	want.Proxy = pgas.DefaultProxyConfig()
	for _, m := range machines {
		t.Run(m.name, func(t *testing.T) {
			spec, err := NewSystemSpec(cfg, m.hw)
			if err != nil {
				t.Fatal(err)
			}
			if got := spec.Hardware(); got != want {
				t.Fatalf("normalizes to %+v, want %+v", got, want)
			}
			for _, be := range []Backend{&Baseline{}, &PGASFused{}} {
				s, err := spec.NewRun()
				if err != nil {
					t.Fatal(err)
				}
				res, err := s.Run(be)
				if err != nil {
					t.Fatal(err)
				}
				if res.NICMessages != 0 || res.NICWireBytes != 0 {
					t.Errorf("%s: one node sent %d NIC messages (%g wire bytes)",
						be.Name(), res.NICMessages, res.NICWireBytes)
				}
			}
		})
	}
}

// Runs on the same cluster spec must be bit-identical across repetitions —
// the determinism contract the experiment engine's -parallel flag relies on.
func TestClusterRunsAreDeterministic(t *testing.T) {
	cfg := clusterTestConfig(4)
	cfg.Dedup = true
	spec, err := NewSystemSpec(cfg, ClusterHardware(2))
	if err != nil {
		t.Fatal(err)
	}
	var first *Result
	for i := 0; i < 2; i++ {
		s, err := spec.NewRun()
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(&PGASFused{})
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res
			continue
		}
		if res.TotalTime != first.TotalTime {
			t.Fatalf("run %d total %g != run 0 total %g", i, res.TotalTime, first.TotalTime)
		}
		if res.NICPayloadBytes != first.NICPayloadBytes || res.NICMessages != first.NICMessages {
			t.Fatalf("run %d NIC traffic differs from run 0", i)
		}
		for g := range first.Final {
			if !tensor.Equal(res.Final[g], first.Final[g]) {
				t.Fatalf("run %d GPU %d output differs from run 0", i, g)
			}
		}
	}
}

// Node-level dedup must ship strictly fewer NIC payload bytes than the dense
// scheme whenever it engages, and each node-unique row crosses the NIC once.
func TestClusterDedupReducesNICBytes(t *testing.T) {
	run := func(dedup bool) *Result {
		cfg := MultiNodeConfig(2, 2)
		cfg.Batches = 1
		cfg.Dedup = dedup
		s, err := NewSystem(cfg, ClusterHardware(2))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(&PGASFused{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	dense := run(false)
	dd := run(true)
	if dd.NICPayloadBytes >= dense.NICPayloadBytes {
		t.Fatalf("node dedup NIC payload %g >= dense %g", dd.NICPayloadBytes, dense.NICPayloadBytes)
	}
}

// Satellite: multi-node shape validation — node counts that do not divide
// the GPU count (or are otherwise impossible) must be descriptive errors.
func TestClusterShapeValidation(t *testing.T) {
	cases := []struct {
		name    string
		gpus    int
		hw      func() HardwareParams
		wantSub string
	}{
		{"negative-nodes", 4, func() HardwareParams { return ClusterHardware(-1) }, "negative node count"},
		{"three-gpus-two-nodes", 3, func() HardwareParams { return ClusterHardware(2) }, "divisible"},
		{"five-gpus-three-nodes", 5, func() HardwareParams { return ClusterHardware(3) }, "divisible"},
		{"more-nodes-than-gpus", 2, func() HardwareParams { return ClusterHardware(4) }, "at least one GPU"},
		{"bad-nic", 4, func() HardwareParams {
			hw := ClusterHardware(2)
			hw.NIC = fabric.NICParams{NICsPerNode: -1, Bandwidth: 1e9, MaxMessage: 1}
			return hw
		}, "NIC"},
		{"bad-proxy", 4, func() HardwareParams {
			hw := ClusterHardware(2)
			hw.Proxy = pgas.ProxyConfig{StagingBytes: -5}
			return hw
		}, "proxy"},
		// One node carries no NIC or proxy traffic, but its NIC and proxy
		// settings are still checked.
		{"bad-nic-one-node", 4, func() HardwareParams {
			hw := DefaultHardware()
			hw.NIC = fabric.NICParams{NICsPerNode: -1, Bandwidth: 1e9, MaxMessage: 1}
			return hw
		}, "NIC"},
		{"bad-proxy-one-node", 4, func() HardwareParams {
			hw := DefaultHardware()
			hw.Proxy = pgas.ProxyConfig{StagingBytes: -5}
			return hw
		}, "proxy"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := clusterTestConfig(c.gpus)
			cfg.TotalTables = 2 * c.gpus // keep tables >= GPUs across shapes
			_, err := NewSystemSpec(cfg, c.hw())
			if err == nil {
				t.Fatalf("shape %s accepted", c.name)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Fatalf("error %q does not mention %q", err, c.wantSub)
			}
		})
	}
	// And the legal shapes still construct.
	for _, nodes := range []int{1, 2, 3} {
		cfg := clusterTestConfig(6)
		if _, err := NewSystemSpec(cfg, ClusterHardware(nodes)); err != nil {
			t.Fatalf("%d nodes x %d GPUs rejected: %v", nodes, 6/nodes, err)
		}
	}
}
