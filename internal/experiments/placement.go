package experiments

import (
	"context"
	"fmt"

	"pgasemb/internal/metrics"
	"pgasemb/internal/retrieval"
	"pgasemb/internal/workload"
)

// PlacementOptions tunes the adaptive-placement sweep: placement policy ×
// backend × Zipf exponent, each point one offline retrieval run on a
// workload whose per-feature pooling is graded (two dominant tables, two
// mid-hot, flat tail) so table loads are skewed the way production
// recommendation traffic is.
type PlacementOptions struct {
	// Sweep.Backends defaults to baseline and pgas-fused.
	Sweep
	// Policies names the placement policies to sweep. Known: static (the
	// table-wise contiguous plan), greedy (the analytic LPT plan over
	// EXPECTED loads), adaptive (priced statistics-driven rebalancing), and
	// adaptive+mirror (rebalancing plus a budget of hot-table mirrors).
	// Default: all four.
	Policies []string
	// GPUs sizes the machine (default 4). Ignored when Base is set.
	GPUs int
	// ZipfExponents are the row-skew settings to sweep (default {1.05, 1.2}).
	ZipfExponents []float64
	// Batches is each point's batch count (default 48). Ignored when Base is
	// set.
	Batches int
	// RebalanceEvery is the adaptive policies' epoch length in batches
	// (default 8).
	RebalanceEvery int
	// HotTables is the adaptive+mirror policy's mirror budget (default 2).
	HotTables int
	// Base overrides the workload configuration (default: a graded-skew
	// variant of ServingScaleConfig); its placement and Zipf fields are
	// overwritten by the sweep.
	Base *retrieval.Config
	// HW selects the hardware model (nil = calibrated defaults).
	HW *retrieval.HardwareParams
}

// PlacementPolicies are the known policy names, in sweep order.
var PlacementPolicies = []string{"static", "greedy", "adaptive", "adaptive+mirror"}

// base builds the sweep workload: ServingScaleConfig sized to the machine,
// re-pooled so the first two tables dominate (max pooling 64), the next two
// are mid-hot (16), and the tail is flat (4) — the static table-wise plan
// colocates all four heavy tables on GPU 0.
func (o PlacementOptions) base() (retrieval.Config, error) {
	if o.Base != nil {
		return *o.Base, nil
	}
	cfg := servingBase(nil, o.GPUs)
	cfg.Functional = false
	cfg.Batches = 48
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
	return resize(cfg, o.Batches, 0)
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

// RunPlacement executes the placement-policy sweep. Every grid point owns
// its system, so points dispatch freely onto the worker pool; results land
// in an index-addressed slice, byte-identical at any parallelism. It returns
// early when ctx is done.
func RunPlacement(ctx context.Context, opts PlacementOptions) (*PlacementResult, error) {
	policies := orList(opts.Policies, PlacementPolicies)
	zipfs := orList(opts.ZipfExponents, []float64{1.05, 1.2})
	backends := orList(opts.Backends, []retrieval.Backend{&retrieval.Baseline{}, &retrieval.PGASFused{}})
	base, err := opts.base()
	if err != nil {
		return nil, fmt.Errorf("experiments: placement: %w", err)
	}
	hw := hardware(opts.HW, 1)
	for _, p := range policies {
		switch p {
		case "static", "greedy", "adaptive", "adaptive+mirror":
		default:
			return nil, fmt.Errorf("experiments: unknown placement policy %q (known: %v)", p, PlacementPolicies)
		}
	}
	res := &PlacementResult{Policies: policies, Zipfs: zipfs}
	n := len(backends) * len(zipfs) * len(policies)
	res.Points, err = runJobs(ctx, opts.Sweep, "placement", n, func(i int) (PlacementPoint, error) {
		pi := i % len(policies)
		zi := i / len(policies) % len(zipfs)
		bi := i / (len(policies) * len(zipfs))
		backend := backends[bi]
		policy := policies[pi]

		cfg := base
		cfg.ZipfExponent = zipfs[zi]
		switch policy {
		case "greedy":
			cfg.GreedyPlan = true
		case "adaptive", "adaptive+mirror":
			cfg.AdaptivePlacement = true
			cfg.RebalanceEvery = orDefault(opts.RebalanceEvery, 8)
			if policy == "adaptive+mirror" {
				cfg.HotTables = orDefault(opts.HotTables, 2)
			}
		}
		fail := func(err error) (PlacementPoint, error) {
			return PlacementPoint{}, fmt.Errorf("experiments: placement, %s policy %s zipf %g: %w",
				backend.Name(), policy, cfg.ZipfExponent, err)
		}
		s, err := retrieval.NewSystem(cfg, hw)
		if err != nil {
			return fail(err)
		}
		r, err := s.RunContext(ctx, backend)
		if err != nil {
			return fail(err)
		}
		var maxKeys int64
		keys := make([]float64, len(r.OwnerKeys))
		for g, k := range r.OwnerKeys {
			keys[g] = float64(k)
			if k > maxKeys {
				maxKeys = k
			}
		}
		return PlacementPoint{
			Backend:       backend.Name(),
			Zipf:          cfg.ZipfExponent,
			Policy:        policy,
			TotalTime:     r.TotalTime,
			MaxOwnerKeys:  maxKeys,
			Imbalance:     metrics.Imbalance(keys),
			Rebalances:    r.Rebalances,
			MigratedBytes: r.MigratedBytes,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	// Speedups against the same (backend, Zipf) static point, once every
	// point is in place.
	static := make(map[[2]int]float64)
	for i, p := range res.Points {
		if p.Policy == "static" {
			zi := i / len(policies) % len(zipfs)
			bi := i / (len(policies) * len(zipfs))
			static[[2]int{bi, zi}] = p.TotalTime
		}
	}
	for i := range res.Points {
		zi := i / len(policies) % len(zipfs)
		bi := i / (len(policies) * len(zipfs))
		if st, ok := static[[2]int{bi, zi}]; ok && res.Points[i].TotalTime > 0 {
			res.Points[i].Speedup = st / res.Points[i].TotalTime
		}
	}
	return res, nil
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
