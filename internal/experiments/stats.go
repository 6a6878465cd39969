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
	hw := opts.hardware()
	maxGPUs := opts.maxGPUs()
	counts := maxGPUs - 1 // GPU counts 2..maxGPUs
	if counts <= 0 {
		return nil, fmt.Errorf("experiments: statistics need MaxGPUs >= 2")
	}
	specs := make([]*retrieval.SystemSpec, maxGPUs+1)
	for gpus := 2; gpus <= maxGPUs; gpus++ {
		spec, err := retrieval.NewSystemSpec(opts.apply(kind.Config(gpus)), hw)
		if err != nil {
			return nil, err
		}
		specs[gpus] = spec
	}
	// Job i covers (seed, gpus, backend); results land indexed so the
	// assembled statistics are identical at any parallelism.
	times := make([]float64, seeds*counts*2)
	stop := opts.Bench.Start(fmt.Sprintf("%s-scaling-stats", kind), opts.parallel())
	err := forEach(ctx, opts.parallel(), len(times), func(i int) error {
		s := i / (counts * 2)
		rem := i % (counts * 2)
		gpus := 2 + rem/2
		var backend retrieval.Backend = &retrieval.Baseline{}
		if rem%2 == 1 {
			backend = &retrieval.PGASFused{}
		}
		spec := specs[gpus]
		seed := spec.Config().Seed + uint64(s)*1_000_003
		r, err := runSpec(ctx, spec, backend, seed, opts.Bench)
		if err != nil {
			return err
		}
		times[i] = r.TotalTime
		return nil
	})
	stop()
	if err != nil {
		return nil, err
	}
	samples := make([][]float64, maxGPUs+1)
	for s := 0; s < seeds; s++ {
		for gpus := 2; gpus <= maxGPUs; gpus++ {
			at := s*counts*2 + (gpus-2)*2
			samples[gpus] = append(samples[gpus], times[at]/times[at+1])
		}
	}
	var out []SpeedupStats
	for gpus := 2; gpus <= maxGPUs; gpus++ {
		xs := samples[gpus]
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
			sq += (x - mean) * (x - mean)
		}
		sd := 0.0
		if len(xs) > 1 {
			sd = math.Sqrt(sq / float64(len(xs)-1))
		}
		out = append(out, SpeedupStats{
			GPUs: gpus, Seeds: seeds, Mean: mean, StdDev: sd, Min: mn, Max: mx,
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
