package experiments

import (
	"context"
	"fmt"

	"pgasemb/internal/dlrm"
	"pgasemb/internal/retrieval"
	"pgasemb/internal/sim"
)

// PipelineDepthPoint is one (backend, depth) end-to-end DLRM inference run
// on the inter-batch pipelining sweep.
type PipelineDepthPoint struct {
	Backend string
	Depth   int
	// Total is end-to-end inference time; EMB the accumulated EMB-layer
	// segment; Dense the depth-invariant dense-compute floor; Stall the
	// EMB-visible stall max(0, Total-Dense).
	Total sim.Duration
	EMB   sim.Duration
	Dense sim.Duration
	Stall sim.Duration
	// Speedup is this run's gain over the same backend at depth 1.
	Speedup float64
}

// RunPipelineDepth sweeps the inter-batch pipeline depth for the baseline
// and the accelerated backend on the weak-scaling DLRM workload at the given
// GPU count. Depth 1 is the serial schedule; deeper runs overlap the next
// batch's EMB exchange with the current batch's dense tail. Every (backend,
// depth) run is independent and dispatches onto the worker pool; results
// land in an index-addressed slice, identical at any parallelism. It returns
// early when ctx is done.
func RunPipelineDepth(ctx context.Context, gpus int, depths []int, opts Options) ([]PipelineDepthPoint, error) {
	if len(depths) == 0 {
		depths = []int{1, 2}
	}
	for _, d := range depths {
		if d < 1 {
			return nil, fmt.Errorf("experiments: pipeline-depth sweep needs depths >= 1, got %d", d)
		}
	}
	base, err := resize(retrieval.WeakScalingConfig(gpus), opts.Batches, opts.BatchSize)
	if err != nil {
		return nil, fmt.Errorf("experiments: pipeline-depth sweep: %w", err)
	}
	hw := hardware(opts.HW, 1)
	// Each job wires its own pipeline (spec and model), so its recorded run
	// time includes the wiring: that is serial work the pool spreads.
	runs, err := versus(ctx, opts.Sweep, fmt.Sprintf("pipeline-depth-%dgpu", gpus), len(depths),
		func(p int, b retrieval.Backend) (PipelineDepthPoint, error) {
			cfg := base
			cfg.PipelineDepth = depths[p]
			fail := func(err error) (PipelineDepthPoint, error) {
				return PipelineDepthPoint{}, fmt.Errorf("experiments: pipeline-depth sweep, %s depth %d: %w",
					b.Name(), depths[p], err)
			}
			pl, err := dlrm.NewPipeline(cfg, hw, b)
			if err != nil {
				return fail(err)
			}
			r, err := pl.RunContext(ctx)
			if err != nil {
				return fail(err)
			}
			return PipelineDepthPoint{Backend: r.Backend, Depth: depths[p], Total: r.TotalTime,
				EMB: r.EMBTime, Dense: r.DenseTime, Stall: r.EMBStall}, nil
		})
	if err != nil {
		return nil, err
	}
	// Rows run backend-major. Speedups are relative to each backend's own
	// shallowest run, so the column reads as "what deeper pipelining alone
	// bought this backend".
	out := make([]PipelineDepthPoint, len(runs))
	for i, r := range runs {
		side, di := i%2, i/2
		r.Speedup = float64(runs[side].Total / r.Total)
		out[side*len(depths)+di] = r
	}
	return out, nil
}

// PipelineDepthTable renders the sweep: one row per (backend, depth), with
// the EMB-visible stall and each backend's gain over its own depth-1 run.
func PipelineDepthTable(points []PipelineDepthPoint) *Table {
	t := &Table{
		Title: "Inter-batch pipelining: EMB exchange overlapped with dense compute",
		Headers: []string{"backend", "depth", "total", "emb", "dense_floor",
			"emb_stall", "speedup vs depth 1"},
	}
	for _, p := range points {
		t.Rows = append(t.Rows, []string{
			p.Backend,
			fmt.Sprintf("%d", p.Depth),
			sim.FormatTime(p.Total),
			sim.FormatTime(p.EMB),
			sim.FormatTime(p.Dense),
			sim.FormatTime(p.Stall),
			fmt.Sprintf("%.2fx", p.Speedup),
		})
	}
	return t
}
