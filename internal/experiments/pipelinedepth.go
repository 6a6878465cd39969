package experiments

import (
	"context"
	"fmt"
	"time"

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
	base := opts.apply(retrieval.WeakScalingConfig(gpus))
	hw := opts.hardware()
	type slot struct {
		name  string
		fresh func() (retrieval.Backend, error)
	}
	slots := []slot{
		{"baseline", func() (retrieval.Backend, error) { return &retrieval.Baseline{}, nil }},
		{"", opts.pgasBackend},
	}
	out := make([]PipelineDepthPoint, len(slots)*len(depths))
	stop := opts.Bench.Start(fmt.Sprintf("pipeline-depth-%dgpu", gpus), opts.parallel())
	err := forEach(ctx, opts.parallel(), len(out), func(i int) error {
		si := i / len(depths)
		di := i % len(depths)
		backend, err := slots[si].fresh()
		if err != nil {
			return fmt.Errorf("experiments: pipeline-depth sweep: %w", err)
		}
		cfg := base
		cfg.PipelineDepth = depths[di]
		// Each job wires its own pipeline (spec and model), so the recorded
		// run time includes it: that is serial work the pool spreads.
		start := time.Now()
		pl, err := dlrm.NewPipeline(cfg, hw, backend)
		if err != nil {
			return fmt.Errorf("experiments: pipeline-depth sweep, %s depth %d: %w",
				backend.Name(), depths[di], err)
		}
		r, err := pl.RunContext(ctx)
		opts.Bench.noteRun(time.Since(start))
		if err != nil {
			return fmt.Errorf("experiments: pipeline-depth sweep, %s depth %d: %w",
				backend.Name(), depths[di], err)
		}
		out[i] = PipelineDepthPoint{
			Backend: r.Backend,
			Depth:   depths[di],
			Total:   r.TotalTime,
			EMB:     r.EMBTime,
			Dense:   r.DenseTime,
			Stall:   r.EMBStall,
		}
		return nil
	})
	stop()
	if err != nil {
		return nil, err
	}
	// Speedups are relative to each backend's own shallowest run, so the
	// column reads as "what deeper pipelining alone bought this backend".
	for si := range slots {
		ref := out[si*len(depths)].Total
		for di := range depths {
			out[si*len(depths)+di].Speedup = float64(ref / out[si*len(depths)+di].Total)
		}
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
