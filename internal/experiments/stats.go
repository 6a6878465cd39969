package experiments

import (
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

// statsSweep repeats the scaling sweep across `seeds` workload seeds on
// 2 .. maxGPUs GPUs and reports per-GPU-count speedup statistics — the
// variance the paper's single-seed tables do not show. The pooling draws
// are the only stochastic input, so at paper scale the spread is small; the
// statistics quantify exactly how small. Seed s of a GPU count runs at the
// configuration's seed + s*1_000_003.
func statsSweep(kind ScalingKind, maxGPUs, seeds, batches int, acc retrieval.Backend) sweep[[]SpeedupStats] {
	var pts []point
	for s := 0; s < seeds; s++ {
		for gpus := 2; gpus <= maxGPUs; gpus++ {
			cfg := sized(kind.Config(gpus), batches, 0)
			cfg.Seed += uint64(s) * 1_000_003
			pts = append(pts, pair(cfg, retrieval.ClusterHardware(1), acc)...)
		}
	}
	return sweep[[]SpeedupStats]{pts, func(outs []outcome) []SpeedupStats {
		samples := make([][]float64, maxGPUs-1)
		for i := 0; i < len(outs); i += 2 {
			c := i / 2 % len(samples)
			samples[c] = append(samples[c], outs[i].sys.TotalTime/outs[i+1].sys.TotalTime)
		}
		var out []SpeedupStats
		for c, xs := range samples {
			out = append(out, speedupStats(c+2, xs))
		}
		return out
	}}
}

// speedupStats summarises one GPU count's speedup samples.
func speedupStats(gpus int, xs []float64) SpeedupStats {
	var sum float64
	mn, mx := xs[0], xs[0]
	for _, x := range xs {
		sum += x
		mn, mx = min(mn, x), max(mx, x)
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
	return SpeedupStats{GPUs: gpus, Seeds: len(xs), Mean: mean, StdDev: sd, Min: mn, Max: mx}
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
