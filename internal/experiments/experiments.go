// Package experiments regenerates every table and figure of the paper's
// evaluation section from the simulated system:
//
//	Table 1 / Table 2 — weak/strong scaling speedups of PGAS over baseline
//	Figure 5 / Figure 8 — weak/strong scaling factor curves
//	Figure 6 / Figure 9 — runtime component breakdowns
//	Figure 7 / Figure 10 — communication volume over time
//
// Each experiment returns structured data plus ASCII/CSV renderings; the
// calibration shape tests in this package assert that the regenerated
// results match the paper's qualitative and (within tolerance) quantitative
// findings.
package experiments

import (
	"context"
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

// Options tunes the paper's sweeps: scaling, statistics, communication
// volume, ablations and pipeline depth.
type Options struct {
	Sweep
	// MaxGPUs bounds the sweep (paper: 4).
	MaxGPUs int
	// Batches overrides the per-run batch count (0 = paper's 100).
	Batches int
	// BatchSize overrides the per-run batch size (0 = the configuration's).
	// Mainly for tests: the paper-scale batch makes index-level passes
	// (dedup classification) expensive.
	BatchSize int
	// HW selects the hardware model (zero value = calibrated defaults).
	HW *retrieval.HardwareParams
	// Dedup adds the batch-level index-deduplication axis: every scaling
	// point runs each backend twice, with deduplication off and on, and the
	// rendered tables grow the dedup columns.
	Dedup bool
}

// spec builds a sweep point's spec from cfg with the batch overrides and
// the hardware applied.
func (o Options) spec(cfg retrieval.Config) (*retrieval.SystemSpec, error) {
	cfg, err := resize(cfg, o.Batches, o.BatchSize)
	if err != nil {
		return nil, err
	}
	return retrieval.NewSystemSpec(cfg, hardware(o.HW, 1))
}

// ScalingPoint holds one GPU count's pair of runs. When the sweep carries
// the dedup axis (Options.Dedup), the dedup-enabled runs ride along.
type ScalingPoint struct {
	GPUs     int
	Baseline *retrieval.Result
	PGAS     *retrieval.Result

	// BaselineDedup / PGASDedup are the same runs with batch-level index
	// deduplication enabled; nil unless Options.Dedup was set.
	BaselineDedup *retrieval.Result
	PGASDedup     *retrieval.Result
}

// Speedup returns baseline/PGAS total time.
func (p ScalingPoint) Speedup() float64 {
	return metrics.Speedup(p.Baseline.TotalTime, p.PGAS.TotalTime)
}

// DedupSpeedup returns baseline/PGAS total time with deduplication enabled
// on both sides. It panics unless the sweep carried the dedup axis.
func (p ScalingPoint) DedupSpeedup() float64 {
	return metrics.Speedup(p.BaselineDedup.TotalTime, p.PGASDedup.TotalTime)
}

// ScalingResult is a full sweep over GPU counts.
type ScalingResult struct {
	Kind ScalingKind
	// Dedup reports whether the sweep carried the dedup on/off axis.
	Dedup  bool
	Points []ScalingPoint
}

// RunScaling executes the weak- or strong-scaling sweep with both backends.
// The sweep's runs (baseline and PGAS at every GPU count, ×2 when the dedup
// axis is on) dispatch onto the worker pool; each (GPU count, dedup)
// combination shares one immutable spec, and results land in an
// index-addressed slice so the tables are byte-identical at any Parallel. It
// returns early when ctx is done.
func RunScaling(ctx context.Context, kind ScalingKind, opts Options) (*ScalingResult, error) {
	maxGPUs := orDefault(opts.MaxGPUs, 4)
	dedups := []bool{false}
	if opts.Dedup {
		dedups = append(dedups, true)
	}
	// Point p is GPU count p/len(dedups)+1 with dedup dedups[p%len(dedups)].
	var specs []*retrieval.SystemSpec
	for gpus := 1; gpus <= maxGPUs; gpus++ {
		for _, dedup := range dedups {
			cfg := kind.Config(gpus)
			cfg.Dedup = dedup
			spec, err := opts.spec(cfg)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s scaling, %d GPUs, dedup=%v: %w", kind, gpus, dedup, err)
			}
			specs = append(specs, spec)
		}
	}
	results, err := versus(ctx, opts.Sweep, fmt.Sprintf("%s-scaling", kind), len(specs),
		func(p int, b retrieval.Backend) (*retrieval.Result, error) {
			spec := specs[p]
			r, err := runSpec(ctx, spec, b, spec.Config().Seed)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s scaling, %d GPUs, %s: %w", kind, spec.Config().GPUs, b.Name(), err)
			}
			return r, nil
		})
	if err != nil {
		return nil, err
	}
	res := &ScalingResult{Kind: kind, Dedup: opts.Dedup}
	for gpus := 1; gpus <= maxGPUs; gpus++ {
		at := 2 * len(dedups) * (gpus - 1)
		p := ScalingPoint{GPUs: gpus, Baseline: results[at], PGAS: results[at+1]}
		if opts.Dedup {
			p.BaselineDedup, p.PGASDedup = results[at+2], results[at+3]
		}
		res.Points = append(res.Points, p)
	}
	return res, nil
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

// RunCommVolume profiles communication volume over time (the paper's
// "communication counter" experiment) for the given scaling kind and GPU
// count. The paper plots 2 GPUs for the weak configuration (Figure 7) and 4
// GPUs for the strong one (Figure 10). The baseline and PGAS runs execute
// concurrently from one shared spec. It returns early when ctx is done.
func RunCommVolume(ctx context.Context, kind ScalingKind, gpus, bins int, opts Options) (*CommVolumeResult, error) {
	if gpus < 2 {
		return nil, fmt.Errorf("experiments: communication profiling needs >= 2 GPUs")
	}
	bins = orDefault(bins, 120)
	spec, err := opts.spec(kind.Config(gpus))
	if err != nil {
		return nil, fmt.Errorf("experiments: %s comm volume, %d GPUs: %w", kind, gpus, err)
	}
	runs, err := versus(ctx, opts.Sweep, fmt.Sprintf("%s-commvolume-%dgpu", kind, gpus), 1,
		func(_ int, b retrieval.Backend) (*retrieval.Result, error) {
			return runSpec(ctx, spec, b, spec.Config().Seed)
		})
	if err != nil {
		return nil, err
	}
	base, pgas := runs[0], runs[1]
	return &CommVolumeResult{
		Kind: kind, GPUs: gpus, Bins: bins,
		Baseline:     base.CommTrace.RateSeries(0, base.TotalTime, bins),
		PGAS:         pgas.CommTrace.RateSeries(0, pgas.TotalTime, bins),
		BaselineSpan: base.TotalTime,
		PGASSpan:     pgas.TotalTime,
	}, nil
}
