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

// Options tunes an experiment run.
type Options struct {
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
	// Backend names the registered backend occupying the accelerated slot
	// of every sweep — the "PGAS" column of the rendered tables. Empty
	// means "pgas-fused"; the comparison slot always runs the baseline.
	Backend string
	// Dedup adds the batch-level index-deduplication axis: every scaling
	// point runs each backend twice, with deduplication off and on, and the
	// rendered tables grow the dedup columns.
	Dedup bool
	// Parallel bounds the number of simulation runs executed concurrently
	// (0 = GOMAXPROCS). Results are identical for every value; only
	// wall-clock time changes.
	Parallel int
	// Bench, when set, records each experiment's wall-clock time and the
	// host time of every simulation run.
	Bench *Bench
}

func (o Options) maxGPUs() int {
	if o.MaxGPUs <= 0 {
		return 4
	}
	return o.MaxGPUs
}

func (o Options) hardware() retrieval.HardwareParams {
	if o.HW != nil {
		return *o.HW
	}
	return retrieval.DefaultHardware()
}

// pgasBackend resolves Options.Backend through the backend registry; a
// fresh instance is built per call so concurrent runs never share one.
func (o Options) pgasBackend() (retrieval.Backend, error) {
	name := o.Backend
	if name == "" {
		name = "pgas-fused"
	}
	return retrieval.NewBackendByName(name)
}

func (o Options) apply(cfg retrieval.Config) retrieval.Config {
	if o.Batches > 0 {
		cfg.Batches = o.Batches
	}
	if o.BatchSize > 0 {
		cfg.BatchSize = o.BatchSize
	}
	return cfg
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
	hw := opts.hardware()
	maxGPUs := opts.maxGPUs()
	perPoint := 2
	if opts.Dedup {
		perPoint = 4
	}
	specs := make([]*retrieval.SystemSpec, maxGPUs+1)
	dedupSpecs := make([]*retrieval.SystemSpec, maxGPUs+1)
	for gpus := 1; gpus <= maxGPUs; gpus++ {
		cfg := opts.apply(kind.Config(gpus))
		spec, err := retrieval.NewSystemSpec(cfg, hw)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s scaling, %d GPUs: %w", kind, gpus, err)
		}
		specs[gpus] = spec
		if opts.Dedup {
			cfg.Dedup = true
			dspec, err := retrieval.NewSystemSpec(cfg, hw)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s scaling, %d GPUs, dedup: %w", kind, gpus, err)
			}
			dedupSpecs[gpus] = dspec
		}
	}
	results := make([]*retrieval.Result, perPoint*maxGPUs)
	stop := opts.Bench.Start(fmt.Sprintf("%s-scaling", kind), opts.parallel())
	err := forEach(ctx, opts.parallel(), len(results), func(i int) error {
		gpus := i/perPoint + 1
		slot := i % perPoint
		var backend retrieval.Backend = &retrieval.Baseline{}
		if slot%2 == 1 {
			var berr error
			if backend, berr = opts.pgasBackend(); berr != nil {
				return fmt.Errorf("experiments: %w", berr)
			}
		}
		spec := specs[gpus]
		if slot >= 2 {
			spec = dedupSpecs[gpus]
		}
		r, err := runSpec(ctx, spec, backend, spec.Config().Seed, opts.Bench)
		if err != nil {
			return fmt.Errorf("experiments: %s scaling, %d GPUs, %s: %w", kind, gpus, backend.Name(), err)
		}
		results[i] = r
		return nil
	})
	stop()
	if err != nil {
		return nil, err
	}
	res := &ScalingResult{Kind: kind, Dedup: opts.Dedup}
	for gpus := 1; gpus <= maxGPUs; gpus++ {
		p := ScalingPoint{
			GPUs:     gpus,
			Baseline: results[perPoint*(gpus-1)],
			PGAS:     results[perPoint*(gpus-1)+1],
		}
		if opts.Dedup {
			p.BaselineDedup = results[perPoint*(gpus-1)+2]
			p.PGASDedup = results[perPoint*(gpus-1)+3]
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

// PGASTotals returns the PGAS total runtime per GPU count.
func (r *ScalingResult) PGASTotals() []float64 {
	var out []float64
	for _, p := range r.Points {
		out = append(out, p.PGAS.TotalTime)
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
	if bins <= 0 {
		bins = 120
	}
	spec, err := retrieval.NewSystemSpec(opts.apply(kind.Config(gpus)), opts.hardware())
	if err != nil {
		return nil, err
	}
	out := &CommVolumeResult{Kind: kind, GPUs: gpus, Bins: bins}
	stop := opts.Bench.Start(fmt.Sprintf("%s-commvolume-%dgpu", kind, gpus), opts.parallel())
	err = forEach(ctx, opts.parallel(), 2, func(i int) error {
		var backend retrieval.Backend = &retrieval.Baseline{}
		if i == 1 {
			var berr error
			if backend, berr = opts.pgasBackend(); berr != nil {
				return fmt.Errorf("experiments: %w", berr)
			}
		}
		r, err := runSpec(ctx, spec, backend, spec.Config().Seed, opts.Bench)
		if err != nil {
			return err
		}
		series := r.CommTrace.RateSeries(0, r.TotalTime, bins)
		if i == 1 {
			out.PGAS = series
			out.PGASSpan = r.TotalTime
		} else {
			out.Baseline = series
			out.BaselineSpan = r.TotalTime
		}
		return nil
	})
	stop()
	if err != nil {
		return nil, err
	}
	return out, nil
}
