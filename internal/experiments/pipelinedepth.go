package experiments

import (
	"fmt"

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

// pipelineDepthSweep declares the inter-batch pipeline-depth sweep of the
// baseline and acc on the weak-scaling DLRM workload at the given GPU
// count: one end-to-end pipeline run per (backend, depth), backend-major.
// Depth 1 is the serial schedule; deeper runs overlap the next batch's EMB
// exchange with the current batch's dense tail.
func pipelineDepthSweep(gpus int, depths []int, batches int, acc retrieval.Backend) sweep[[]PipelineDepthPoint] {
	var pts []point
	for _, b := range []retrieval.Backend{&retrieval.Baseline{}, acc} {
		for _, d := range depths {
			cfg := sized(retrieval.WeakScalingConfig(gpus), batches, 0)
			cfg.PipelineDepth = d
			pts = append(pts, point{kind: pipelineRun, cfg: cfg, hw: retrieval.ClusterHardware(1), backend: b})
		}
	}
	return sweep[[]PipelineDepthPoint]{pts, func(outs []outcome) []PipelineDepthPoint {
		res := make([]PipelineDepthPoint, len(outs))
		for i, o := range outs {
			r := o.pipe
			// Speedups are relative to each backend's own shallowest run, so
			// the column reads as "what deeper pipelining alone bought this
			// backend".
			first := outs[i-i%len(depths)].pipe
			res[i] = PipelineDepthPoint{Backend: r.Backend, Depth: depths[i%len(depths)], Total: r.TotalTime,
				EMB: r.EMBTime, Dense: r.DenseTime, Stall: r.EMBStall, Speedup: float64(first.TotalTime / r.TotalTime)}
		}
		return res
	}}
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
