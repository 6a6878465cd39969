package retrieval

import (
	"context"
	"testing"

	"pgasemb/internal/gpu"
	"pgasemb/internal/sim"
	"pgasemb/internal/trace"
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
			d := gpu.NewDevice(sim.NewEnv(), 0, p)
			if got := gatherDedupWins(d, c.uniq, c.refs, c.refs/4, 256); got != c.want {
				t.Fatalf("gatherDedupWins(%d, %d) = %v, want %v", c.uniq, c.refs, got, c.want)
			}
		})
	}
}

// TestGatherDedupDecisionMatchesWalk holds the gather-dedup decision to the
// walk's own prices: on every GPU of every batch, flipping any served
// non-wire pair's decision never makes the whole gather kernel cheaper, under
// the collective's route rule (the baseline's one-chunk kernel, remote items
// streamed) and the one-sided rule (remote items issued as stores).
func TestGatherDedupDecisionMatchesWalk(t *testing.T) {
	for _, collective := range []bool{true, false} {
		name := "one-sided"
		if collective {
			name = "collective"
		}
		t.Run(name, func(t *testing.T) {
			cfg := clusterTestConfig(4)
			cfg.Dedup = true
			cfg.MaxPooling = 16
			s, err := NewSystem(cfg, ClusterHardware(2))
			if err != nil {
				t.Fatal(err)
			}
			seen := map[bool]int{}
			bk := &trace.Breakdown{}
			_, err = s.Drive(context.Background(), 1, func(p *sim.Proc, g, _ int, bd *BatchData) {
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
						plan.Dedup.Gather[o][c] = !decided
						flipped := kernel()
						plan.Dedup.Gather[o][c] = decided
						if flipped < base*(1-1e-12) {
							t.Errorf("GPU %d pair (%d, %d): gather dedup %v costs %g, the other way %g",
								g, o, c, decided, base, flipped)
						}
					}
				}
				(&Baseline{}).RunBatch(s, p, g, bd, bk)
			})
			if err != nil {
				t.Fatal(err)
			}
			if seen[true] == 0 || seen[false] == 0 {
				t.Fatalf("decisions seen %v: the grid does not exercise both outcomes", seen)
			}
		})
	}
}
