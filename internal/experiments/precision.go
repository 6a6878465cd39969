package experiments

import (
	"context"
	"fmt"

	"pgasemb/internal/metrics"
	"pgasemb/internal/retrieval"
	"pgasemb/internal/sim"
	"pgasemb/internal/tensor"
)

// The wire-precision experiment: how much of the retrieval step survives
// when embedding rows cross NVLink and the NIC as fp16 or per-row-scaled
// int8 instead of fp32. Every (backend, dedup, precision) cell is a timing
// run on the same seed, so the comm-volume and EMB-time columns isolate the
// codec; a small functional sidecar run per precision measures the actual
// worst-case output deviation the quantization introduces, since the codec's
// accuracy cost is independent of backend and machine shape (every backend
// reads the same quantized-at-rest tables).

// PrecisionOptions tunes the wire-precision sweep.
type PrecisionOptions struct {
	// Sweep.Backends are the backends to sweep. Empty means baseline and
	// pgas-fused.
	Sweep
	// Nodes picks the machine: 1 = a single NVLink node, >1 = a cluster of
	// NVLink nodes joined by NICs (default 1).
	Nodes int
	// GPUsPerNode is each node's GPU count (default 4).
	GPUsPerNode int
	// Batches overrides the per-run batch count (0 = the configuration's).
	Batches int
	// BatchSize overrides the per-run global batch size (0 = the
	// configuration's). Mainly for tests and CI smoke runs.
	BatchSize int
}

// precisionSweep is the fixed precision axis, widest wire format first.
var precisionSweep = []retrieval.Precision{retrieval.FP32, retrieval.FP16, retrieval.Int8}

// PrecisionPoint holds one (backend, dedup, precision) timing run.
type PrecisionPoint struct {
	Backend   string
	Dedup     bool
	Precision retrieval.Precision
	Result    *retrieval.Result
}

// PrecisionResult is the full sweep plus the per-precision accuracy sidecar.
type PrecisionResult struct {
	Nodes       int
	GPUsPerNode int
	// Points are ordered backend-major, then dedup, then precision, so each
	// triple of consecutive entries shares its fp32 head.
	Points []PrecisionPoint
	// MaxAbsErr is the worst per-element output deviation versus the fp32
	// run of the same functional workload, one entry per reduced precision.
	MaxAbsErr map[retrieval.Precision]float64
}

// Point returns the entry for the given cell.
func (r *PrecisionResult) Point(backend string, dedup bool, prec retrieval.Precision) PrecisionPoint {
	for _, p := range r.Points {
		if p.Backend == backend && p.Dedup == dedup && p.Precision == prec {
			return p
		}
	}
	panic(fmt.Sprintf("experiments: no precision point for %s/dedup=%v/%s", backend, dedup, prec))
}

// RunPrecision executes the wire-precision sweep. All timing cells and the
// functional accuracy runs dispatch onto one worker pool; specs are built up
// front and results land in index-addressed slices, so the tables are
// byte-identical at any Parallel. It returns early when ctx is done.
func RunPrecision(ctx context.Context, opts PrecisionOptions) (*PrecisionResult, error) {
	backends := orList(opts.Backends, []retrieval.Backend{&retrieval.Baseline{}, &retrieval.PGASFused{}})
	nodes := orDefault(opts.Nodes, 1)
	perNode := orDefault(opts.GPUsPerNode, 4)
	hw := hardware(nil, nodes)
	dedups := []bool{false, true}
	// One spec per (dedup, precision); every backend shares it.
	var specs []*retrieval.SystemSpec
	for _, dedup := range dedups {
		for _, prec := range precisionSweep {
			cfg := retrieval.MultiNodeConfig(nodes, perNode)
			cfg.Dedup = dedup
			cfg.WirePrecision = prec
			cfg, err := resize(cfg, opts.Batches, opts.BatchSize)
			if err != nil {
				return nil, fmt.Errorf("experiments: precision sweep: %w", err)
			}
			spec, err := retrieval.NewSystemSpec(cfg, hw)
			if err != nil {
				return nil, fmt.Errorf("experiments: precision sweep, dedup=%v %s: %w", dedup, prec, err)
			}
			specs = append(specs, spec)
		}
	}
	// The accuracy sidecar runs the small functional workload, whose outputs
	// depend only on the precision (quantize-at-rest), not the backend.
	for _, prec := range precisionSweep {
		cfg := retrieval.TestScaleConfig(perNode)
		cfg.WirePrecision = prec
		spec, err := retrieval.NewSystemSpec(cfg, retrieval.DefaultHardware())
		if err != nil {
			return nil, fmt.Errorf("experiments: precision accuracy run, %s: %w", prec, err)
		}
		specs = append(specs, spec)
	}

	// Cells run backend-major over the timing specs, then the baseline on
	// each accuracy spec.
	type cell struct {
		backend retrieval.Backend
		spec    *retrieval.SystemSpec
	}
	timing := len(dedups) * len(precisionSweep)
	var cells []cell
	for _, b := range backends {
		for _, spec := range specs[:timing] {
			cells = append(cells, cell{b, spec})
		}
	}
	timingRuns := len(cells)
	for _, spec := range specs[timing:] {
		cells = append(cells, cell{&retrieval.Baseline{}, spec})
	}
	results, err := runJobs(ctx, opts.Sweep, "precision-sweep", len(cells), func(i int) (*retrieval.Result, error) {
		c := cells[i]
		r, err := runSpec(ctx, c.spec, c.backend, c.spec.Config().Seed)
		if err != nil {
			return nil, fmt.Errorf("experiments: precision sweep, %s dedup=%v %s: %w",
				c.backend.Name(), c.spec.Config().Dedup, c.spec.Config().WirePrecision, err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}

	res := &PrecisionResult{
		Nodes:       nodes,
		GPUsPerNode: perNode,
		MaxAbsErr:   map[retrieval.Precision]float64{},
	}
	for i, c := range cells[:timingRuns] {
		res.Points = append(res.Points, PrecisionPoint{
			Backend:   c.backend.Name(),
			Dedup:     c.spec.Config().Dedup,
			Precision: c.spec.Config().WirePrecision,
			Result:    results[i],
		})
	}
	fp32 := results[timingRuns]
	for pi, prec := range precisionSweep {
		if prec == retrieval.FP32 {
			continue
		}
		var worst float64
		got := results[timingRuns+pi]
		for g := range got.Final {
			if d := tensor.MaxAbsDiff(got.Final[g], fp32.Final[g]); d > worst {
				worst = d
			}
		}
		res.MaxAbsErr[prec] = worst
	}
	return res, nil
}

// SweepTable renders the full grid: per cell, EMB time, the speedup the
// reduced wire format buys over fp32 on the same backend and dedup setting,
// the communication volume with its compression ratio, the NIC wire traffic
// on cluster machines, and the measured worst-case output error.
func (r *PrecisionResult) SweepTable() *Table {
	t := &Table{
		Title: fmt.Sprintf("Wire-precision sweep (%d node(s) x %d GPUs)", r.Nodes, r.GPUsPerNode),
		Headers: []string{"Backend", "Dedup", "Precision", "EMB time", "vs fp32",
			"Comm GB", "Comm ratio", "NIC GB", "Max abs err"},
	}
	for _, p := range r.Points {
		base := r.Point(p.Backend, p.Dedup, retrieval.FP32).Result
		commRatio := "-"
		if base.CommTrace.Total() > 0 {
			commRatio = fmt.Sprintf("%.3f", p.Result.CommTrace.Total()/base.CommTrace.Total())
		}
		maxErr := "0"
		if e, ok := r.MaxAbsErr[p.Precision]; ok {
			maxErr = fmt.Sprintf("%.3e", e)
		}
		t.Rows = append(t.Rows, []string{
			p.Backend,
			fmt.Sprintf("%v", p.Dedup),
			p.Precision.String(),
			sim.FormatTime(p.Result.TotalTime),
			fmt.Sprintf("%.2fx", metrics.Speedup(base.TotalTime, p.Result.TotalTime)),
			gigabytes(p.Result.CommTrace.Total()),
			commRatio,
			gigabytes(p.Result.NICWireBytes),
			maxErr,
		})
	}
	return t
}
