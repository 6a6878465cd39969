package retrieval

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pgasemb/internal/fault"
	"pgasemb/internal/sim"
	"pgasemb/internal/tensor"
)

func TestRegistryContents(t *testing.T) {
	names := RegisteredBackends()
	want := []string{"baseline", "baseline-direct-placement", "pgas-fused", "pgas-overlap-only"}
	if len(names) != len(want) {
		t.Fatalf("registered backends = %v, want %v", names, want)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("registered backends = %v, want %v", names, want)
		}
	}
	for _, n := range names {
		b, err := NewBackendByName(n)
		if err != nil {
			t.Fatalf("NewBackendByName(%q): %v", n, err)
		}
		if b.Name() != n {
			t.Errorf("backend registered as %q reports Name() == %q", n, b.Name())
		}
		if BackendSummary(n) == "" {
			t.Errorf("backend %q has no summary", n)
		}
	}
}

func TestRegistryUnknownBackendListsNames(t *testing.T) {
	_, err := NewBackendByName("nope")
	if err == nil {
		t.Fatal("unknown backend accepted")
	}
	for _, n := range RegisteredBackends() {
		if !strings.Contains(err.Error(), n) {
			t.Errorf("error %q does not mention registered backend %q", err, n)
		}
	}
}

// TestRegistryBitExactnessGate is the registry-driven correctness gate:
// every registered backend, across the wire-precision × dedup × cache grid
// and on one-node and two-node machines, must (a) reproduce the serial
// Reference bit-exactly in functional mode — the reference reads the same
// quantized-at-rest tables, so reduced precisions are held to byte
// identity, not an error tolerance — and (b) finish a timing-only run at
// exactly the functional run's simulated time. The one-node machine runs
// under both of its spellings, the zero-Nodes DefaultHardware() and
// ClusterHardware(1), so neither can drift from the other.
// Registering a backend is what opts it into this gate — a new backend is
// held to the invariants automatically.
func TestRegistryBitExactnessGate(t *testing.T) {
	machines := []struct {
		name string
		hw   HardwareParams
	}{
		{"single", DefaultHardware()},
		{"cluster1", ClusterHardware(1)},
		{"cluster2", ClusterHardware(2)},
	}
	for _, name := range RegisteredBackends() {
		for _, m := range machines {
			registryFaultGate(t, name, m.name, m.hw)
			registryPlacementGate(t, name, m.name, m.hw)
			for _, prec := range []Precision{FP32, FP16, Int8} {
				for _, dedup := range []bool{false, true} {
					for _, cached := range []bool{false, true} {
						label := fmt.Sprintf("%s/%s", name, m.name)
						if prec != FP32 {
							label += "+" + prec.String()
						}
						if dedup {
							label += "+dedup"
						}
						if cached {
							label += "+cache"
						}
						t.Run(label, func(t *testing.T) {
							run := func(functional bool, depth int) *Result {
								cfg := clusterTestConfig(4)
								cfg.WirePrecision = prec
								cfg.Dedup = dedup
								cfg.Functional = functional
								cfg.PipelineDepth = depth
								if cached {
									cfg.CacheFraction = 1e-8
								}
								s, err := NewSystem(cfg, m.hw)
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
								if functional {
									want := mustReference(t, s, res.LastBatch)
									for g := range want {
										if !tensor.Equal(res.Final[g], want[g]) {
											t.Fatalf("depth %d: GPU %d differs from reference (max diff %g)",
												depth, g, tensor.MaxAbsDiff(res.Final[g], want[g]))
										}
									}
								}
								return res
							}
							// The gate holds at every pipeline depth: functional
							// output == serial reference and timing run ==
							// functional run's simulated time. An EMB-only run
							// has no dense tail to overlap, so at depth 2 its
							// outputs are byte-identical to the depth-1 run's
							// and its total and every GPU's breakdown equal
							// them exactly.
							var fSerial, tSerial *Result
							for _, depth := range []int{1, 2} {
								fRes, tRes := run(true, depth), run(false, depth)
								if fRes.TotalTime != tRes.TotalTime {
									t.Errorf("depth %d: functional total %g != timing total %g",
										depth, fRes.TotalTime, tRes.TotalTime)
								}
								if depth == 1 {
									fSerial, tSerial = fRes, tRes
									if prec == FP32 && m.name != "cluster1" {
										checkPinned(t, label, tRes)
									}
									continue
								}
								for g := range fRes.Final {
									if !tensor.Equal(fRes.Final[g], fSerial.Final[g]) {
										t.Fatalf("depth %d: GPU %d differs from the depth-1 run (max diff %g)",
											depth, g, tensor.MaxAbsDiff(fRes.Final[g], fSerial.Final[g]))
									}
								}
								sameTimes(t, fRes, fSerial)
								sameTimes(t, tRes, tSerial)
							}
						})
					}
				}
			}
		}
	}
}

// sameTimes fails t unless got's simulated total and every GPU's component
// breakdown equal want's exactly.
func sameTimes(t *testing.T, got, want *Result) {
	t.Helper()
	if got.TotalTime != want.TotalTime {
		t.Errorf("TotalTime %v, want %v", got.TotalTime, want.TotalTime)
	}
	for g := range want.PerGPU {
		if a, b := got.PerGPU[g].Components(), want.PerGPU[g].Components(); !slices.Equal(a, b) {
			t.Errorf("GPU %d breakdown %v, want %v", g, a, b)
		}
	}
}

// registryFaultGate is the fault-injection and replication extension of the
// bit-exactness gate, run at the plain (no dedup) grid point:
//
//   - an empty fault schedule with Replicas = 1 must be byte- AND
//     time-identical to running with no schedule at all (the hooks cost
//     nothing when idle);
//   - under seeded fault schedules, and with replicated shards (alone and
//     beside the hot-row cache), functional outputs must still match the
//     serial reference bit-exactly and a timing-only run must land on the
//     functional run's simulated time.
func registryFaultGate(t *testing.T, name, machine string, hw HardwareParams) {
	run := func(t *testing.T, sched *fault.Schedule, replicas int, cached, functional bool, prec Precision) *Result {
		t.Helper()
		cfg := clusterTestConfig(4)
		cfg.Functional = functional
		cfg.Replicas = replicas
		cfg.WirePrecision = prec
		if cached {
			cfg.CacheFraction = 1e-8
		}
		fhw := hw
		fhw.Faults = sched
		s, err := NewSystem(cfg, fhw)
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
		if cached && s.Caches.Stats().Hits == 0 {
			t.Fatal("cached run saw no cache hits; the gate is not exercising the cache")
		}
		if functional {
			want := mustReference(t, s, res.LastBatch)
			for g := range want {
				if !tensor.Equal(res.Final[g], want[g]) {
					t.Fatalf("GPU %d differs from reference (max diff %g)",
						g, tensor.MaxAbsDiff(res.Final[g], want[g]))
				}
			}
		}
		return res
	}
	timeGate := func(t *testing.T, sched *fault.Schedule, replicas int, cached bool, prec Precision) *Result {
		fRes := run(t, sched, replicas, cached, true, prec)
		tRes := run(t, sched, replicas, cached, false, prec)
		if fRes.TotalTime != tRes.TotalTime {
			t.Errorf("functional total %g != timing total %g", fRes.TotalTime, tRes.TotalTime)
		}
		return tRes
	}
	// pinReplicas holds the fault-free FP32 replicated timing run to its
	// pinned result (one-node and two-node machines).
	pinReplicas := func(t *testing.T, label string, res *Result) {
		if machine != "cluster1" {
			checkPinned(t, fmt.Sprintf("%s/%s+%s", name, machine, label), res)
		}
	}

	t.Run(fmt.Sprintf("%s/%s+empty-schedule-identity", name, machine), func(t *testing.T) {
		plain := run(t, nil, 0, false, true, FP32)
		empty := run(t, &fault.Schedule{Seed: 1}, 1, false, true, FP32)
		// Replicas 0 and 1 both mean "unreplicated" and are recorded in
		// Result.Cfg; mask the echoed configs so the comparison covers the
		// simulation outputs — times, breakdowns, traces, tensors, counters.
		pc, ec := *plain, *empty
		pc.Cfg, ec.Cfg = Config{}, Config{}
		if !reflect.DeepEqual(&pc, &ec) {
			t.Errorf("empty schedule + Replicas=1 diverged from a no-schedule run")
		}
		if plain.TotalTime != empty.TotalTime {
			t.Errorf("empty schedule changed simulated time: %g != %g",
				empty.TotalTime, plain.TotalTime)
		}
	})
	profiles := []string{"flaky-link", "straggler"}
	if strings.HasPrefix(machine, "cluster") {
		profiles = []string{"mixed"}
	}
	for _, profile := range profiles {
		t.Run(fmt.Sprintf("%s/%s+fault-%s", name, machine, profile), func(t *testing.T) {
			sched, err := fault.Profile(profile, 99)
			if err != nil {
				t.Fatal(err)
			}
			timeGate(t, sched, 0, false, FP32)
		})
	}
	t.Run(fmt.Sprintf("%s/%s+replicas2", name, machine), func(t *testing.T) {
		sched, err := fault.Profile("flaky-link", 99)
		if err != nil {
			t.Fatal(err)
		}
		// All three wire precisions: replica failover re-routes pairs per
		// batch, and quantize-at-rest must keep every routing byte-exact.
		for _, prec := range []Precision{FP32, FP16, Int8} {
			res := timeGate(t, nil, 2, false, prec)
			if prec == FP32 {
				pinReplicas(t, "replicas2", res)
			}
			timeGate(t, sched, 2, false, prec)
		}
	})
	t.Run(fmt.Sprintf("%s/%s+replicas2+cache", name, machine), func(t *testing.T) {
		sched, err := fault.Profile("flaky-link", 99)
		if err != nil {
			t.Fatal(err)
		}
		// Replicas and the hot-row cache share one residency pass: a
		// consumer never probes its cache for a shard it holds a replica
		// of, and failover re-routes only the pairs the cache missed.
		pinReplicas(t, "replicas2+cache", timeGate(t, nil, 2, true, FP32))
		for _, prec := range []Precision{FP32, FP16, Int8} {
			timeGate(t, sched, 2, true, prec)
		}
	})
}

// The staged (A2) and aggregated (A3) PGAS variants price their unpack bytes
// and per-target stores from the same served-pair counts as the fused path,
// so they run replicated shards too and stay bit-exact, with timing equal
// to functional, while failover re-routes pairs under a flaky link.
func TestReplicasComposeWithStagedAndAggregatedPGAS(t *testing.T) {
	sched, err := fault.Profile("flaky-link", 99)
	if err != nil {
		t.Fatal(err)
	}
	backends := []func() Backend{
		func() Backend { return &PGASFused{StageRemote: true} },
		func() Backend {
			return &PGASFused{Aggregate: &AggregatorConfig{FlushBytes: 4096, MaxWait: sim.Millisecond}}
		},
	}
	for _, newBackend := range backends {
		t.Run(newBackend().Name(), func(t *testing.T) {
			run := func(functional bool) *Result {
				cfg := clusterTestConfig(4)
				cfg.Replicas = 2
				cfg.Functional = functional
				hw := DefaultHardware()
				hw.Faults = sched
				s, err := NewSystem(cfg, hw)
				if err != nil {
					t.Fatal(err)
				}
				res, err := s.Run(newBackend())
				if err != nil {
					t.Fatal(err)
				}
				if functional {
					want := mustReference(t, s, res.LastBatch)
					for g := range want {
						if !tensor.Equal(res.Final[g], want[g]) {
							t.Fatalf("GPU %d differs from reference (max diff %g)",
								g, tensor.MaxAbsDiff(res.Final[g], want[g]))
						}
					}
				}
				return res
			}
			fRes, tRes := run(true), run(false)
			if fRes.TotalTime != tRes.TotalTime {
				t.Errorf("functional total %g != timing total %g", fRes.TotalTime, tRes.TotalTime)
			}
		})
	}
}
