package experiments

import (
	"fmt"

	"pgasemb/internal/retrieval"
	"pgasemb/internal/sim"
)

// AblationResult holds one backend's runtime on the ablation configuration.
type AblationResult struct {
	Name      string
	TotalTime sim.Duration
}

// ablationSweep declares the mechanism-isolation suite on the weak-scaling
// configuration at the given GPU count: baseline, unpack-elimination only
// (A1), overlap only (A2), full PGAS, and aggregated PGAS (A3). The paper
// attributes its speedup to two mechanisms; this run shows each mechanism's
// isolated contribution.
func ablationSweep(gpus, batches int) sweep[[]AblationResult] {
	cfg := sized(retrieval.WeakScalingConfig(gpus), batches, 0)
	var pts []point
	for _, b := range []retrieval.Backend{
		&retrieval.Baseline{},
		&retrieval.Baseline{DirectPlacement: true},
		&retrieval.PGASFused{StageRemote: true},
		&retrieval.PGASFused{},
		&retrieval.PGASFused{Aggregate: &retrieval.AggregatorConfig{
			FlushBytes: 64 << 10,
			MaxWait:    100 * sim.Microsecond,
		}},
	} {
		pts = append(pts, point{cfg: cfg, hw: retrieval.ClusterHardware(1), backend: b})
	}
	return sweep[[]AblationResult]{pts, func(outs []outcome) []AblationResult {
		res := make([]AblationResult, len(outs))
		for i, o := range outs {
			res[i] = AblationResult{Name: o.sys.Backend, TotalTime: o.sys.TotalTime}
		}
		return res
	}}
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
