package retrieval

import (
	"context"
	"fmt"
	"testing"

	"pgasemb/internal/sim"
	"pgasemb/internal/tensor"
	"pgasemb/internal/trace"
)

// The aggregated-PGAS variant (A3) is constructor-only, so the registry gate
// never runs it. It is held to the gate's invariants here, across every wire
// precision, with and without dedup, on a single node and on a 2-node
// cluster: its outputs match the serial reference byte for byte, and a
// timing-only run lands on the functional run's simulated time exactly.
func TestAggregatedPGASMatchesReferenceAndTiming(t *testing.T) {
	machines := []struct {
		name string
		hw   HardwareParams
	}{
		{"single", DefaultHardware()},
		{"cluster1", ClusterHardware(1)},
		{"cluster2", ClusterHardware(2)},
	}
	for _, m := range machines {
		for _, prec := range []Precision{FP32, FP16, Int8} {
			for _, dedup := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/dedup=%v", m.name, prec, dedup), func(t *testing.T) {
					run := func(functional bool) *Result {
						cfg := clusterTestConfig(4)
						cfg.WirePrecision = prec
						cfg.Dedup = dedup
						cfg.Functional = functional
						s, err := NewSystem(cfg, m.hw)
						if err != nil {
							t.Fatal(err)
						}
						res, err := s.Run(&PGASFused{Aggregate: &AggregatorConfig{FlushBytes: 4096, MaxWait: sim.Millisecond}})
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
					if f, tm := run(true), run(false); f.TotalTime != tm.TotalTime {
						t.Errorf("functional total %g != timing total %g (diff %g)",
							f.TotalTime, tm.TotalTime, f.TotalTime-tm.TotalTime)
					}
				})
			}
		}
	}
}

// walkBatches runs s's functional batches under be and calls check on each
// once every GPU has walked it: its transfer log is complete and its route
// plan is still the run's live one. check runs on a simulated process, so it
// reports with t.Error, never t.Fatal.
func walkBatches(t *testing.T, s *System, be Backend, check func(bd *BatchData)) {
	t.Helper()
	bks := make([]*trace.Breakdown, s.Cfg.GPUs)
	for g := range bks {
		bks[g] = &trace.Breakdown{}
	}
	walked := 0
	_, err := s.Drive(context.Background(), func(p *sim.Proc, g, _ int, bd *BatchData) {
		be.RunBatch(s, p, g, bd, bks[g])
		if walked++; walked == s.Cfg.GPUs {
			walked = 0
			check(bd)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTransferLogConservation sums the transfer log of functional runs over
// the registry grid's machines and checks it against the route plan and the
// transports:
//
//   - each (server, consumer) pair logs exactly the plan's vectors for it:
//     the served shards' cache-missed pooled vectors on dense routes, the
//     pair's unique rows on wire routes, and each owner's node-level unique
//     rows once per destination node on node-wire routes;
//   - each server's logged wire bytes equal the payload its PGAS PE issued
//     (one-sided backends), or, summed over servers, the collective's egress
//     volume (the baseline on one node, where the all-to-all is not relayed
//     through node lanes);
//   - each GPU's stage counts, under the backend's route rule, match the log
//     (see checkStageCounts).
func TestTransferLogConservation(t *testing.T) {
	machines := []struct {
		name string
		hw   HardwareParams
	}{
		{"single", DefaultHardware()},
		{"cluster1", ClusterHardware(1)},
		{"cluster2", ClusterHardware(2)},
	}
	seen := map[PairClass]int{}
	for _, name := range RegisteredBackends() {
		collective := name == "baseline" || name == "baseline-direct-placement"
		for _, m := range machines {
			for _, prec := range []Precision{FP32, FP16, Int8} {
				for _, dedup := range []bool{false, true} {
					for _, cached := range []bool{false, true} {
						label := fmt.Sprintf("%s/%s/%s/dedup=%v/cache=%v", name, m.name, prec, dedup, cached)
						t.Run(label, func(t *testing.T) {
							cfg := clusterTestConfig(4)
							cfg.Functional = true
							cfg.WirePrecision = prec
							cfg.Dedup = dedup
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
							G := cfg.GPUs
							logged := make([]int, G)
							walkBatches(t, s, be, func(bd *BatchData) {
								checkPairCounts(t, s, bd, collective)
								checkStageCounts(t, s, bd, collective, name == "pgas-overlap-only")
								for _, tr := range bd.log.recs {
									logged[tr.server] += tr.wireBytes
									seen[tr.route]++
								}
							})
							total := 0
							for g := 0; g < G; g++ {
								total += logged[g]
								if collective {
									continue
								}
								if pay := s.PGAS.PE(g).PayloadBytes(); float64(logged[g]) != pay {
									t.Errorf("server %d logged %d wire bytes, its PE issued %g", g, logged[g], pay)
								}
							}
							if collective && !s.multiNode() {
								if vol := s.Comm.Volume().Total(); float64(total) != vol {
									t.Errorf("logged %d wire bytes, the collective moved %g", total, vol)
								}
							}
						})
					}
				}
			}
		}
	}
	for _, route := range []PairClass{RouteDense, RouteWire, RouteNodeWire} {
		if seen[route] == 0 {
			t.Errorf("no %s transfer logged anywhere on the grid; the test is not exercising it", route)
		}
	}
}

// checkPairCounts compares one batch's logged vectors per (server, consumer)
// pair — per (server, node) on node-wire routes — with the plan's counts.
// collective selects the pair-addressed routes the all-to-all uses.
func checkPairCounts(t *testing.T, s *System, bd *BatchData, collective bool) {
	t.Helper()
	type key struct {
		server, dst int // dst: consumer, or destination node on node-wire
		route       PairClass
	}
	got, want := map[key]int{}, map[key]int{}
	for _, tr := range bd.log.recs {
		k := key{tr.server, tr.consumer, tr.route}
		if tr.route == RouteNodeWire {
			k.dst = s.nodeOf(tr.consumer)
		}
		got[k] += tr.vecs
	}
	plan := bd.Plan
	for o := 0; o < s.Cfg.GPUs; o++ {
		for c := 0; c < s.Cfg.GPUs; c++ {
			route := plan.Class(o, c)
			if collective {
				route = plan.CollectiveClass(o, c)
			}
			server := plan.ServeGPU(o, c)
			switch route {
			case RouteWire:
				want[key{server, c, RouteWire}] += int(plan.pair(o, c).uniq)
			case RouteNodeWire:
				node := s.nodeOf(c)
				want[key{server, node, RouteNodeWire}] = int(plan.node(o, node).uniq)
			default:
				if v := plan.pairVecs(o, c); v > 0 {
					want[key{server, c, RouteDense}] += v
				}
			}
		}
	}
	for k, v := range want {
		if v == 0 {
			delete(want, k)
		}
	}
	if len(got) != len(want) {
		t.Errorf("logged %d (server, destination, route) pairs, the plan has %d: %v vs %v", len(got), len(want), got, want)
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("server %d -> %d (%s): logged %d vectors, plan counts %d", k.server, k.dst, k.route, got[k], w)
		}
	}
}

// checkStageCounts compares one batch's stage counts for every GPU g, under
// the collective's or the one-sided route rule, with the batch's log and
// functional classification:
//
//   - codecVecs' sent equals g's logged vectors to other GPUs;
//   - its recv equals the vectors other GPUs logged to g, where a node-wire
//     pair counts the whole node-staged row set its shard logged to g's node;
//   - unpackWork's vectors equal the logged remote dense vectors that land at
//     g, or when staged every remote vector landing there (a node-wire
//     transfer lands on its stage-lane GPU);
//   - expandWork's references equal the expansion maps' lengths, and its
//     outputs the non-hit vectors of g's wire and node-wire pairs;
//   - under the one-sided rule, storeFanOut, the fan-out the fused kernel
//     charges per chunk, equals the distinct other GPUs g's logged transfers
//     land on.
func checkStageCounts(t *testing.T, s *System, bd *BatchData, collective, staged bool) {
	t.Helper()
	plan := bd.Plan
	class := plan.Class
	if collective {
		class = plan.CollectiveClass
	}
	G := s.Cfg.GPUs
	sent, recv, unpack := make([]int64, G), make([]int64, G), make([]int64, G)
	nodeRows := map[[2]int]int64{} // (shard, node): logged node-wire rows
	lands := map[[2]int]bool{}     // (server, GPU): a logged transfer lands there
	for _, tr := range bd.log.recs {
		v := int64(tr.vecs)
		land := tr.consumer
		if tr.route == RouteNodeWire {
			node := s.nodeOf(tr.consumer)
			nodeRows[[2]int{tr.shard, node}] += v
			land = s.stageGPU(tr.shard, node)
		} else if tr.server != tr.consumer {
			recv[tr.consumer] += v
		}
		if tr.server != tr.consumer {
			sent[tr.server] += v
		}
		if tr.server != land {
			lands[[2]int{tr.server, land}] = true
		}
		if tr.server != land && (staged || tr.route == RouteDense) {
			unpack[land] += v
		}
	}
	for g := 0; g < G; g++ {
		lo, hi := s.Minibatch(g)
		var refs int64
		outs := 0
		for o := 0; o < G; o++ {
			cls := class(o, g)
			if cls == RouteNodeWire && plan.ServeGPU(o, g) != g {
				recv[g] += nodeRows[[2]int{o, s.nodeOf(g)}]
			}
			if cls != RouteWire && cls != RouteNodeWire {
				continue
			}
			if cls == RouteWire {
				refs += int64(len(plan.pair(o, g).expand))
			} else {
				refs += int64(len(plan.pair(o, g).nodeExpand))
			}
			for fi := range s.Plan[o] {
				for smp := lo; smp < hi; smp++ {
					if !plan.isHit(o, fi, smp) {
						outs++
					}
				}
			}
		}
		if gs, gr := plan.codecVecs(g, class); gs != sent[g] || gr != recv[g] {
			t.Errorf("GPU %d: codecVecs (sent %d, recv %d), the log has (%d, %d)", g, gs, gr, sent[g], recv[g])
		}
		if v, _ := plan.unpackWork(g, class, staged); v != unpack[g] {
			t.Errorf("GPU %d: unpackWork moves %d vectors, the log lands %d", g, v, unpack[g])
		}
		if r, n := plan.expandWork(g, class); r != refs || n != outs {
			t.Errorf("GPU %d: expandWork (refs %d, outputs %d), the classification has (%d, %d)", g, r, n, refs, outs)
		}
		if collective {
			continue
		}
		fanOut := 0
		for c := 0; c < G; c++ {
			if lands[[2]int{g, c}] {
				fanOut++
			}
		}
		if f := plan.storeFanOut(g); f != fanOut {
			t.Errorf("GPU %d: the fused kernel charges a fan-out of %d, its logged transfers land on %d GPUs", g, f, fanOut)
		}
	}
}
