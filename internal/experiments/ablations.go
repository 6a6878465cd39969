package experiments

import (
	"context"
	"fmt"

	"pgasemb/internal/retrieval"
	"pgasemb/internal/sim"
)

// AblationResult holds one backend's runtime on the ablation configuration.
type AblationResult struct {
	Name      string
	TotalTime sim.Duration
}

// RunAblations executes the mechanism-isolation suite on the weak-scaling
// configuration at the given GPU count: baseline, unpack-elimination only
// (A1), overlap only (A2), full PGAS, and aggregated PGAS (A3). The paper
// attributes its speedup to two mechanisms; this run shows each mechanism's
// isolated contribution. All five backends run concurrently from one shared
// spec. It returns early when ctx is done.
func RunAblations(ctx context.Context, gpus int, opts Options) ([]AblationResult, error) {
	spec, err := opts.spec(retrieval.WeakScalingConfig(gpus))
	if err != nil {
		return nil, fmt.Errorf("experiments: ablations: %w", err)
	}
	backends := []retrieval.Backend{
		&retrieval.Baseline{},
		&retrieval.Baseline{DirectPlacement: true},
		&retrieval.PGASFused{StageRemote: true},
		&retrieval.PGASFused{},
		&retrieval.PGASFused{Aggregate: &retrieval.AggregatorConfig{
			FlushBytes: 64 << 10,
			MaxWait:    100 * sim.Microsecond,
		}},
	}
	return runJobs(ctx, opts.Sweep, fmt.Sprintf("ablations-%dgpu", gpus), len(backends), func(i int) (AblationResult, error) {
		r, err := runSpec(ctx, spec, backends[i], spec.Config().Seed)
		if err != nil {
			return AblationResult{}, fmt.Errorf("experiments: ablations, %s: %w", backends[i].Name(), err)
		}
		return AblationResult{Name: r.Backend, TotalTime: r.TotalTime}, nil
	})
}

// AblationTable renders ablation results with speedups over the first
// (baseline) row.
func AblationTable(results []AblationResult) *Table {
	t := &Table{
		Title:   "Mechanism ablations (weak-scaling workload)",
		Headers: []string{"backend", "runtime", "speedup over baseline"},
	}
	if len(results) == 0 {
		return t
	}
	base := results[0].TotalTime
	for _, r := range results {
		t.Rows = append(t.Rows, []string{
			r.Name,
			sim.FormatTime(r.TotalTime),
			fmt.Sprintf("%.2fx", base/r.TotalTime),
		})
	}
	return t
}
