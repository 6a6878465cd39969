package experiments

import (
	"fmt"

	"pgasemb/internal/metrics"
	"pgasemb/internal/retrieval"
	"pgasemb/internal/workload"
)

// The adaptive-placement sweep: placement policy × backend × Zipf
// exponent, each point one offline retrieval run on a workload whose
// per-feature pooling is graded (two dominant tables, two mid-hot, flat
// tail) so table loads are skewed the way production recommendation
// traffic is.

// PlacementPolicies are the known policy names, in sweep order: static (the
// table-wise contiguous plan), greedy (the analytic LPT plan over EXPECTED
// loads), adaptive (priced statistics-driven rebalancing), and
// adaptive+mirror (rebalancing plus a budget of two hot-table mirrors).
var PlacementPolicies = []string{"static", "greedy", "adaptive", "adaptive+mirror"}

// placementBase builds the sweep workload: ServingScaleConfig sized to the
// machine, re-pooled so the first two tables dominate (max pooling 64), the
// next two are mid-hot (16), and the tail is flat (4) — the static
// table-wise plan colocates all four heavy tables on GPU 0.
func placementBase(gpus, batches int) retrieval.Config {
	cfg := retrieval.ServingScaleConfig(gpus)
	cfg.Functional = false
	cfg.Batches = batches
	pool := make([]int, cfg.TotalTables)
	for f := range pool {
		pool[f] = 4
	}
	pool[0], pool[1] = 64, 64
	pool[2], pool[3] = 16, 16
	cfg.MinPooling = 1
	cfg.MaxPooling = 4
	cfg.PerFeatureMaxPooling = pool
	cfg.Distribution = workload.Zipf
	// Dedup makes the Zipf dimension bite: hot-row duplication — and so the
	// wire traffic each policy leaves behind — scales with the exponent.
	cfg.Dedup = true
	return cfg
}

// PlacementPoint is one (backend, Zipf exponent, policy) retrieval run.
type PlacementPoint struct {
	Backend string
	Zipf    float64
	Policy  string

	// TotalTime is the run's simulated time, including any migration traffic
	// the adaptive policies charged between epochs.
	TotalTime float64
	// Speedup is the same (backend, Zipf) static point's TotalTime over this
	// point's (1.0 for static itself; 0 when static is not in the sweep).
	Speedup float64
	// MaxOwnerKeys is the busiest GPU's accumulated pooled-gather count —
	// the load the placement subsystem exists to shrink.
	MaxOwnerKeys int64
	// Imbalance is max/mean of the per-GPU gather counts (1.0 = balanced).
	Imbalance float64
	// Rebalances counts applied plan swaps; MigratedBytes the shard and
	// mirror bytes they copied (zero for the non-adaptive policies).
	Rebalances    int
	MigratedBytes float64
}

// PlacementResult is the full sweep in backend-major, Zipf-then-policy
// order — deterministic for any Parallel.
type PlacementResult struct {
	Policies []string
	Zipfs    []float64
	Points   []PlacementPoint
}

// placementSweep declares the placement-policy sweep over base on hw:
// backend-major, then Zipf exponent, then policy. The adaptive policies
// rebalance every rebalanceEvery batches.
func placementSweep(policies []string, zipfs []float64, rebalanceEvery int, base retrieval.Config,
	hw retrieval.HardwareParams, backends []retrieval.Backend) (sweep[*PlacementResult], error) {
	var pts []point
	for _, b := range backends {
		for _, z := range zipfs {
			for _, policy := range policies {
				cfg := base
				cfg.ZipfExponent = z
				switch policy {
				case "static":
				case "greedy":
					cfg.GreedyPlan = true
				case "adaptive", "adaptive+mirror":
					cfg.AdaptivePlacement = true
					cfg.RebalanceEvery = rebalanceEvery
					if policy == "adaptive+mirror" {
						cfg.HotTables = 2
					}
				default:
					return sweep[*PlacementResult]{}, fmt.Errorf("unknown placement policy %q (known: %v)", policy, PlacementPolicies)
				}
				pts = append(pts, point{cfg: cfg, hw: hw, backend: b})
			}
		}
	}
	return sweep[*PlacementResult]{pts, func(outs []outcome) *PlacementResult {
		res := &PlacementResult{Policies: policies, Zipfs: zipfs}
		for i, o := range outs {
			r := o.sys
			var maxKeys int64
			keys := make([]float64, len(r.OwnerKeys))
			for g, k := range r.OwnerKeys {
				keys[g] = float64(k)
				maxKeys = max(maxKeys, k)
			}
			res.Points = append(res.Points, PlacementPoint{
				Backend:       pts[i].backend.Name(),
				Zipf:          pts[i].cfg.ZipfExponent,
				Policy:        policies[i%len(policies)],
				TotalTime:     r.TotalTime,
				MaxOwnerKeys:  maxKeys,
				Imbalance:     metrics.Imbalance(keys),
				Rebalances:    r.Rebalances,
				MigratedBytes: r.MigratedBytes,
			})
		}
		// Speedups against the same (backend, Zipf) group's static point.
		for g := 0; g < len(res.Points); g += len(policies) {
			group := res.Points[g : g+len(policies)]
			for _, p := range group {
				if p.Policy != "static" {
					continue
				}
				for i := range group {
					if group[i].TotalTime > 0 {
						group[i].Speedup = p.TotalTime / group[i].TotalTime
					}
				}
			}
		}
		return res
	}}, nil
}

// Table renders the sweep.
func (r *PlacementResult) Table() *Table {
	t := &Table{
		Title: "Placement: adaptive rebalancing and hot-table mirroring vs static plans",
		Headers: []string{"backend", "zipf", "policy", "total_ms", "speedup",
			"imbalance", "max_owner_keys", "rebalances", "migrated_mb"},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{
			p.Backend,
			fmt.Sprintf("%.2f", p.Zipf),
			p.Policy,
			fmt.Sprintf("%.3f", p.TotalTime*1e3),
			fmt.Sprintf("%.3f", p.Speedup),
			fmt.Sprintf("%.3f", p.Imbalance),
			fmt.Sprintf("%d", p.MaxOwnerKeys),
			fmt.Sprintf("%d", p.Rebalances),
			fmt.Sprintf("%.2f", p.MigratedBytes/(1<<20)),
		})
	}
	return t
}
