package experiments

import (
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

// precisions is the fixed precision axis, widest wire format first.
var precisions = []retrieval.Precision{retrieval.FP32, retrieval.FP16, retrieval.Int8}

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

// precisionSweep declares the wire-precision sweep on `nodes` nodes of
// perNode GPUs: every backend's timing cells, backend-major, then dedup,
// then precision, followed by the accuracy sidecar's baseline run per
// precision.
func precisionSweep(nodes, perNode, batches int, backends []retrieval.Backend) sweep[*PrecisionResult] {
	hw := retrieval.ClusterHardware(nodes)
	var pts []point
	for _, b := range backends {
		for _, dedup := range []bool{false, true} {
			for _, prec := range precisions {
				cfg := sized(retrieval.MultiNodeConfig(nodes, perNode), batches, 0)
				cfg.Dedup = dedup
				cfg.WirePrecision = prec
				pts = append(pts, point{cfg: cfg, hw: hw, backend: b})
			}
		}
	}
	// The accuracy sidecar runs the small functional workload, whose outputs
	// depend only on the precision (quantize-at-rest), not the backend.
	for _, prec := range precisions {
		cfg := retrieval.TestScaleConfig(perNode)
		cfg.WirePrecision = prec
		pts = append(pts, point{cfg: cfg, hw: retrieval.DefaultHardware(), backend: &retrieval.Baseline{}})
	}
	timing := len(pts) - len(precisions)
	return sweep[*PrecisionResult]{pts, func(outs []outcome) *PrecisionResult {
		res := &PrecisionResult{
			Nodes:       nodes,
			GPUsPerNode: perNode,
			MaxAbsErr:   map[retrieval.Precision]float64{},
		}
		for i, p := range pts[:timing] {
			res.Points = append(res.Points, PrecisionPoint{
				Backend:   p.backend.Name(),
				Dedup:     p.cfg.Dedup,
				Precision: p.cfg.WirePrecision,
				Result:    outs[i].sys,
			})
		}
		fp32 := outs[timing].sys
		for pi, prec := range precisions[1:] {
			var worst float64
			got := outs[timing+1+pi].sys
			for g := range got.Final {
				worst = max(worst, tensor.MaxAbsDiff(got.Final[g], fp32.Final[g]))
			}
			res.MaxAbsErr[prec] = worst
		}
		return res
	}}
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
