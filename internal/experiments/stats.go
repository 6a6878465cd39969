package experiments

import (
	"context"
	"fmt"
	"math"

	"pgasemb/internal/retrieval"
)

// SpeedupStats summarises the PGAS-over-baseline speedup at one GPU count
// across several workload seeds.
type SpeedupStats struct {
	GPUs   int
	Seeds  int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
}

// RunScalingStats repeats the scaling sweep across `seeds` workload seeds
// and reports per-GPU-count speedup statistics — the variance the paper's
// single-seed tables do not show. The pooling draws are the only stochastic
// input, so at paper scale the spread is small; the statistics quantify
// exactly how small. All seeds × GPU counts × backends runs dispatch onto
// the worker pool; every seed of a GPU count shares that count's immutable
// spec (the per-seed RNG streams are derived at run creation). It returns
// early when ctx is done.
func RunScalingStats(ctx context.Context, kind ScalingKind, seeds int, opts Options) ([]SpeedupStats, error) {
	if seeds <= 0 {
		return nil, fmt.Errorf("experiments: need at least one seed")
	}
	maxGPUs := orDefault(opts.MaxGPUs, 4)
	counts := maxGPUs - 1 // GPU counts 2..maxGPUs
	if counts <= 0 {
		return nil, fmt.Errorf("experiments: statistics need MaxGPUs >= 2")
	}
	specs := make([]*retrieval.SystemSpec, counts)
	for c := range specs {
		spec, err := opts.spec(kind.Config(c + 2))
		if err != nil {
			return nil, fmt.Errorf("experiments: %s scaling stats, %d GPUs: %w", kind, c+2, err)
		}
		specs[c] = spec
	}
	// Point p is seed p/counts at GPU count p%counts+2; results land
	// indexed, so the assembled statistics are identical at any parallelism.
	times, err := versus(ctx, opts.Sweep, fmt.Sprintf("%s-scaling-stats", kind), seeds*counts,
		func(p int, b retrieval.Backend) (float64, error) {
			spec := specs[p%counts]
			r, err := runSpec(ctx, spec, b, spec.Config().Seed+uint64(p/counts)*1_000_003)
			if err != nil {
				return 0, err
			}
			return r.TotalTime, nil
		})
	if err != nil {
		return nil, err
	}
	samples := make([][]float64, counts)
	for p := 0; p < seeds*counts; p++ {
		samples[p%counts] = append(samples[p%counts], times[2*p]/times[2*p+1])
	}
	var out []SpeedupStats
	for c, xs := range samples {
		var sum float64
		mn, mx := xs[0], xs[0]
		for _, x := range xs {
			sum += x
			if x < mn {
				mn = x
			}
			if x > mx {
				mx = x
			}
		}
		mean := sum / float64(len(xs))
		var sq float64
		for _, x := range xs {
			sq += float64((x - mean) * (x - mean))
		}
		sd := 0.0
		if len(xs) > 1 {
			sd = math.Sqrt(sq / float64(len(xs)-1))
		}
		out = append(out, SpeedupStats{
			GPUs: c + 2, Seeds: seeds, Mean: mean, StdDev: sd, Min: mn, Max: mx,
		})
	}
	return out, nil
}

// StatsTable renders speedup statistics.
func StatsTable(kind ScalingKind, stats []SpeedupStats) *Table {
	t := &Table{
		Title:   fmt.Sprintf("%s-scaling speedup across seeds", kind),
		Headers: []string{"GPUs", "seeds", "mean", "stddev", "min", "max"},
	}
	for _, s := range stats {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", s.GPUs),
			fmt.Sprintf("%d", s.Seeds),
			fmt.Sprintf("%.3fx", s.Mean),
			fmt.Sprintf("%.4f", s.StdDev),
			fmt.Sprintf("%.3fx", s.Min),
			fmt.Sprintf("%.3fx", s.Max),
		})
	}
	return t
}
