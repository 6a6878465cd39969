// Package experiments regenerates every table and figure of the paper's
// evaluation section from the simulated system:
//
//	Table 1 / Table 2 — weak/strong scaling speedups of PGAS over baseline
//	Figure 5 / Figure 8 — weak/strong scaling factor curves
//	Figure 6 / Figure 9 — runtime component breakdowns
//	Figure 7 / Figure 10 — communication volume over time
//
// plus the sweeps beyond it. Each experiment is a declared sweep whose
// points run on one engine (Run) and whose results render as ASCII/CSV
// tables; the artifact manifest (Manifest) lists every committed one. The
// calibration shape tests in this package assert that the regenerated
// results match the paper's qualitative and (within tolerance) quantitative
// findings.
package experiments

import (
	"fmt"

	"pgasemb/internal/metrics"
	"pgasemb/internal/retrieval"
	"pgasemb/internal/sim"
	"pgasemb/internal/trace"
)

// ScalingKind selects the paper's §IV-A or §IV-B experiment.
type ScalingKind int

const (
	// WeakScaling holds per-GPU work constant (64 tables per GPU).
	WeakScaling ScalingKind = iota
	// StrongScaling holds total work constant (96 tables).
	StrongScaling
)

func (k ScalingKind) String() string {
	if k == WeakScaling {
		return "weak"
	}
	return "strong"
}

// Config builds the retrieval configuration for this kind and GPU count.
func (k ScalingKind) Config(gpus int) retrieval.Config {
	if k == WeakScaling {
		return retrieval.WeakScalingConfig(gpus)
	}
	return retrieval.StrongScalingConfig(gpus)
}

// ScalingPoint holds one GPU count's pair of runs.
type ScalingPoint struct {
	GPUs     int
	Baseline *retrieval.Result
	PGAS     *retrieval.Result
}

// Speedup returns baseline/PGAS total time.
func (p ScalingPoint) Speedup() float64 {
	return metrics.Speedup(p.Baseline.TotalTime, p.PGAS.TotalTime)
}

// ScalingResult is a full sweep over GPU counts.
type ScalingResult struct {
	Kind   ScalingKind
	Points []ScalingPoint
}

// scalingSweep declares the weak- or strong-scaling sweep on 1 .. maxGPUs
// GPUs at the given batch count (0 = the configuration's): each GPU count's
// baseline run, then its run on acc.
func scalingSweep(kind ScalingKind, maxGPUs, batches int, acc retrieval.Backend) sweep[*ScalingResult] {
	var pts []point
	for gpus := 1; gpus <= maxGPUs; gpus++ {
		pts = append(pts, pair(sized(kind.Config(gpus), batches, 0), retrieval.ClusterHardware(1), acc)...)
	}
	return sweep[*ScalingResult]{pts, func(outs []outcome) *ScalingResult {
		res := &ScalingResult{Kind: kind}
		for i := 0; i < len(outs); i += 2 {
			res.Points = append(res.Points, ScalingPoint{GPUs: i/2 + 1, Baseline: outs[i].sys, PGAS: outs[i+1].sys})
		}
		return res
	}}
}

// Point returns the entry for the given GPU count.
func (r *ScalingResult) Point(gpus int) ScalingPoint {
	for _, p := range r.Points {
		if p.GPUs == gpus {
			return p
		}
	}
	panic(fmt.Sprintf("experiments: no point for %d GPUs", gpus))
}

// Speedups returns the PGAS-over-baseline speedups for GPU counts >= 2 —
// the rows of Table 1 / Table 2.
func (r *ScalingResult) Speedups() []float64 {
	var out []float64
	for _, p := range r.Points {
		if p.GPUs >= 2 {
			out = append(out, p.Speedup())
		}
	}
	return out
}

// GeomeanSpeedup returns the headline number (paper: 1.97x weak, 2.63x
// strong).
func (r *ScalingResult) GeomeanSpeedup() float64 {
	return metrics.Geomean(r.Speedups())
}

// Factors returns the scaling-factor series for one backend: weak scaling
// uses T1/TP (ideal flat 1.0, Figure 5); strong scaling uses T1/TP as the
// speedup over one GPU (ideal = P, Figure 8). Both definitions coincide;
// they differ only in the ideal line they are compared against.
func (r *ScalingResult) Factors(pgas bool) []float64 {
	single := r.Points[0].Baseline.TotalTime
	if pgas {
		single = r.Points[0].PGAS.TotalTime
	}
	var out []float64
	for _, p := range r.Points {
		t := p.Baseline.TotalTime
		if pgas {
			t = p.PGAS.TotalTime
		}
		out = append(out, single/t)
	}
	return out
}

// BreakdownSeries returns, for each GPU count, the named baseline component
// (per the paper's Figures 6 and 9 bars), in seconds.
func (r *ScalingResult) BreakdownSeries(component string) []float64 {
	var out []float64
	for _, p := range r.Points {
		out = append(out, p.Baseline.Breakdown.Get(component))
	}
	return out
}

// BaselineTotals returns the baseline total runtime per GPU count.
func (r *ScalingResult) BaselineTotals() []float64 {
	var out []float64
	for _, p := range r.Points {
		out = append(out, p.Baseline.TotalTime)
	}
	return out
}

// CommVolumeResult carries the data behind Figures 7 and 10: communication
// volume over time for both implementations on a given GPU count.
type CommVolumeResult struct {
	Kind     ScalingKind
	GPUs     int
	Bins     int
	PGAS     []trace.Point // per-bin delivered payload bytes, PGAS run
	Baseline []trace.Point // per-bin delivered payload bytes, baseline run
	// PGASSpan / BaselineSpan are each run's [0, total] windows the series
	// cover.
	PGASSpan     sim.Duration
	BaselineSpan sim.Duration
}

// commVolumeSweep profiles communication volume over time (the paper's
// "communication counter" experiment) for the given scaling kind and GPU
// count, in `bins` time bins. The paper plots 2 GPUs for the weak
// configuration (Figure 7) and 4 GPUs for the strong one (Figure 10).
func commVolumeSweep(kind ScalingKind, gpus, bins, batches int, acc retrieval.Backend) sweep[*CommVolumeResult] {
	pts := pair(sized(kind.Config(gpus), batches, 0), retrieval.ClusterHardware(1), acc)
	return sweep[*CommVolumeResult]{pts, func(outs []outcome) *CommVolumeResult {
		base, pgas := outs[0].sys, outs[1].sys
		return &CommVolumeResult{
			Kind: kind, GPUs: gpus, Bins: bins,
			Baseline:     base.CommTrace.RateSeries(0, base.TotalTime, bins),
			PGAS:         pgas.CommTrace.RateSeries(0, pgas.TotalTime, bins),
			BaselineSpan: base.TotalTime,
			PGASSpan:     pgas.TotalTime,
		}
	}}
}
