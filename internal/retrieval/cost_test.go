package retrieval

import (
	"context"
	"math"
	"testing"

	"pgasemb/internal/gpu"
	"pgasemb/internal/sim"
	"pgasemb/internal/trace"
	"pgasemb/internal/workload"
)

// With V100 efficiencies (gather 0.49, stream and hot 0.85) the staged
// gather wins when uniq/refs < 1 - 0.49/0.85 ≈ 0.4235, whatever the pair's
// output vectors.
func TestGatherDedupWins(t *testing.T) {
	cases := []struct {
		name       string
		hot        float64
		uniq, refs int64
		want       bool
	}{
		{"heavy-duplication", 0.85, 10, 100, true},
		{"just-below-break-even", 0.85, 42, 100, true},
		{"just-above-break-even", 0.85, 43, 100, false},
		{"no-duplicates", 0.85, 100, 100, false},
		{"uniq-exceeds-refs", 0.85, 120, 100, false},
		{"no-hot-path", 0, 1, 100, false},
		{"empty", 0.85, 0, 0, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := gpu.V100Params()
			p.HotRowEfficiency = c.hot
			if got := gatherDedupWins(&p, c.uniq, c.refs, c.refs/4, 256); got != c.want {
				t.Fatalf("gatherDedupWins(%d, %d) = %v, want %v", c.uniq, c.refs, got, c.want)
			}
		})
	}
}

// TestGatherDedupDecisionMatchesWalk holds the gather-dedup decision to the
// walk's own prices: on every GPU of every batch, flipping any served
// non-wire pair's decision never makes the whole gather kernel cheaper, under
// the collective's route rule (the baseline's one-chunk kernel, remote items
// streamed) and the one-sided rule (remote items issued as stores). The grid
// runs a Zipf input, whose diagonal pairs repeat rows and stage them, and a
// uniform one over many rows, whose pairs hardly repeat a row and gather
// reference by reference.
func TestGatherDedupDecisionMatchesWalk(t *testing.T) {
	inputs := []struct {
		name string
		tune func(*Config)
	}{
		{"zipf", func(c *Config) { c.MaxPooling = 16 }},
		{"uniform", func(c *Config) {
			c.Distribution = workload.Uniform
			c.Rows = 1 << 20
		}},
	}
	for _, collective := range []bool{true, false} {
		name := "one-sided"
		if collective {
			name = "collective"
		}
		t.Run(name, func(t *testing.T) {
			seen := map[bool]int{}
			for _, in := range inputs {
				cfg := clusterTestConfig(4)
				cfg.Dedup = true
				in.tune(&cfg)
				s, err := NewSystem(cfg, ClusterHardware(2))
				if err != nil {
					t.Fatal(err)
				}
				bk := &trace.Breakdown{}
				_, err = s.Drive(context.Background(), func(p *sim.Proc, g, _ int, bd *BatchData) {
					plan := bd.Plan
					class := plan.Class
					if collective {
						class = plan.CollectiveClass
					}
					dev := s.Devs[g]
					vb := float64(cfg.VectorBytes())
					kernel := func() sim.Duration {
						var gt gatherTraffic
						gt.addPairs(s, g, plan, 0, cfg.BatchSize, class, nil)
						gt.addHits(s, g, plan, 0, cfg.BatchSize)
						if collective {
							return dev.GatherKernelCost(gt.read, gt.stream+float64(float64(gt.remote)*vb), gt.items)
						}
						return dev.GatherKernelCost(gt.read, gt.stream, gt.items)
					}
					for o := 0; o < cfg.GPUs; o++ {
						for c := 0; c < cfg.GPUs; c++ {
							if cls := class(o, c); plan.ServeGPU(o, c) != g || cls == RouteWire || cls == RouteNodeWire {
								continue
							}
							decided := plan.GatherDedup(o, c)
							seen[decided]++
							base := kernel()
							plan.pair(o, c).gather = !decided
							flipped := kernel()
							plan.pair(o, c).gather = decided
							if flipped < base*(1-1e-12) {
								t.Errorf("%s: GPU %d pair (%d, %d): gather dedup %v costs %g, the other way %g",
									in.name, g, o, c, decided, base, flipped)
							}
						}
					}
					(&Baseline{}).RunBatch(s, p, g, bd, bk)
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			if seen[true] == 0 || seen[false] == 0 {
				t.Fatalf("decisions seen %v: the grid does not exercise both outcomes", seen)
			}
		})
	}
}

// planTerms returns pair (o, c)'s route terms under the plan's one-sided
// route: on a node-wire route, the node's unique rows sit at its stage-lane
// pair (pairItems).
func planTerms(s *System, plan *RoutePlan, o, c int) routeTerms {
	cls := plan.Class(o, c)
	uniq := plan.pair(o, c).uniq
	if cls == RouteNodeWire {
		uniq = int64(plan.pairItems(cls, o, c))
	}
	return s.routeTermsOf(cls, plan.pairMissIdx(o, c), int64(plan.pairVecs(o, c)), uniq, plan.GatherDedup(o, c))
}

// TestRouteTermsMatchWalk holds route pricing's terms to the walk's own
// stage counts on the plans it decided: for every owner GPU, its routes'
// summed terms (plus the index stream and its own cache and mirror hits) are
// the traffic of its whole one-sided gather kernel (gatherTraffic over the
// batch), so batchPrice's kernel and remote issue are the device's; and for
// every consumer, its routes' expansion terms are its expansion kernel's
// work (expandWork). Both route kinds and a cache run on one node and two.
func TestRouteTermsMatchWalk(t *testing.T) {
	for _, tc := range []struct {
		name string
		hw   HardwareParams
		tune func(*Config)
	}{
		{"single", DefaultHardware(), func(*Config) {}},
		{"cluster2", ClusterHardware(2), func(c *Config) { c.GPUs, c.TotalTables = 8, 16 }},
		{"cluster2-cache", func() HardwareParams {
			hw := cacheTestHardware()
			hw.Nodes = 2
			return hw
		}(), func(c *Config) { c.CacheFraction = 0.003 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := dedupTestConfig(4)
			cfg.Functional = false
			tc.tune(&cfg)
			s, err := NewSystem(cfg, tc.hw)
			if err != nil {
				t.Fatal(err)
			}
			G, B, vb := cfg.GPUs, cfg.BatchSize, int64(cfg.VectorBytes())
			seen := map[PairClass]int{}
			for b := 0; b < cfg.Batches; b++ {
				bd, err := s.NextBatchData()
				if err != nil {
					t.Fatal(err)
				}
				plan := bd.Plan
				for g := 0; g < G; g++ {
					vecs, idx := plan.ConsumerChunkHits(g, 0, B)
					sum := routeTerms{hot: idx * vb, stream: idx*8 + int64(vecs)*vb, items: int64(vecs)}
					var exp routeTerms
					for c := 0; c < G; c++ {
						seen[plan.Class(g, c)]++
						sum = sum.plus(planTerms(s, plan, g, c))
						sum.stream += plan.pairMissIdx(g, c) * 8
						exp = exp.plus(planTerms(s, plan, c, g))
					}
					var gt gatherTraffic
					gt.addPairs(s, g, plan, 0, B, plan.Class, nil)
					gt.addHits(s, g, plan, 0, B)
					gp := &s.HW.GPU
					read := float64(sum.cold) + gp.HotReadEquivalent(float64(sum.hot))
					if math.Abs(read-gt.read) > 1e-9*gt.read || float64(sum.stream) != gt.stream ||
						sum.items != int64(gt.items) || sum.remote != int64(gt.remote) {
						t.Fatalf("batch %d GPU %d: terms read/stream/items/remote %g/%d/%d/%d, walk %g/%g/%d/%d",
							b, g, read, sum.stream, sum.items, sum.remote, gt.read, gt.stream, gt.items, gt.remote)
					}
					dev := s.Devs[g]
					kernel, walk := gp.GatherKernelCost(read, float64(sum.stream), int(sum.items)), dev.GatherKernelCost(gt.read, gt.stream, gt.items)
					if math.Abs(float64(kernel-walk)) > 1e-9*float64(walk) {
						t.Fatalf("batch %d GPU %d: priced kernel %v, the walk's %v", b, g, kernel, walk)
					}
					if issue := gp.RemoteIssueCost(int(sum.remote)); issue != dev.RemoteIssueCost(gt.remote) {
						t.Fatalf("batch %d GPU %d: priced issue %v, the walk's %v", b, g, issue, dev.RemoteIssueCost(gt.remote))
					}
					refs, out := plan.expandWork(g, plan.Class)
					if exp.expRefs != refs || exp.expVecs != int64(out) {
						t.Fatalf("batch %d GPU %d: expansion terms %d/%d, the walk's %d/%d", b, g, exp.expRefs, exp.expVecs, refs, out)
					}
					if got, want := gp.ExpandKernelCost(exp.expRefs, int(exp.expVecs), cfg.VectorBytes()), dev.ExpandKernelCost(refs, out, cfg.VectorBytes()); got != want {
						t.Fatalf("batch %d GPU %d: priced expansion %v, the device's %v", b, g, got, want)
					}
				}
			}
			want := []PairClass{RouteLocal, RouteDense, RouteWire}
			if s.multiNode() {
				want = append(want, RouteNodeWire)
			}
			for _, cls := range want {
				if seen[cls] == 0 {
					t.Errorf("no %s route on any batch: its terms go unchecked (seen %v)", cls, seen)
				}
			}
		})
	}
}

// TestWireTimeMatchesTransports holds the wire price to the transports it
// stands for, on an idle two-node machine: wireTime plus the link latency is
// when an NVLink pipe delivers the bytes, and plus the NIC latency when the
// interconnect delivers them as one send, in one message and in several.
func TestWireTimeMatchesTransports(t *testing.T) {
	cfg := clusterTestConfig(4)
	for _, items := range []int64{1, 37, 3 << 16} {
		s, err := NewSystem(cfg, ClusterHardware(2))
		if err != nil {
			t.Fatal(err)
		}
		bytes := int(items) * cfg.WireVectorBytes()
		if got, want := s.wireTime(0, 1, items)+s.HW.Link.LinkLatency, s.Fab.Pipe(0, 1).Offer(float64(bytes)); got != want {
			t.Errorf("%d items over NVLink: wireTime %v + latency, the pipe delivers at %v", items, got, want)
		}
		if got, want := s.wireTime(0, 2, items)+s.HW.NIC.Latency, s.Net.Send(0, 1, bytes); got != want {
			t.Errorf("%d items over the NIC: wireTime %v + latency, the rail delivers %d messages at %v",
				items, got, s.Net.Messages(), want)
		}
	}
	s, err := NewSystem(cfg, ClusterHardware(2))
	if err != nil {
		t.Fatal(err)
	}
	if s.wireTime(0, 1, 0) != 0 || s.wireTime(0, 2, 0) != 0 {
		t.Error("no items take wire time")
	}
}
