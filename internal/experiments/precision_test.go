package experiments

import (
	"context"
	"strings"
	"testing"

	"pgasemb/internal/retrieval"
)

func precisionTestOptions() PrecisionOptions {
	// Cluster shape so the NIC column is live, trimmed to 2 batches and
	// 2 GPUs per node to stay test-sized.
	return PrecisionOptions{Nodes: 2, GPUsPerNode: 2, Batches: 2}
}

// The sweep's acceptance criteria: every reduced precision strictly shrinks
// both the communication volume and the NIC wire traffic of its fp32 peer
// cell, the measured output errors are nonzero but small, and the table
// renders one row per cell.
func TestPrecisionSweep(t *testing.T) {
	opts := precisionTestOptions()
	res, err := RunPrecision(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"baseline", "pgas-fused"} // the default backends
	cells := len(names) * 2 * len(precisionSweep)
	if len(res.Points) != cells {
		t.Fatalf("got %d points, want %d", len(res.Points), cells)
	}
	for _, name := range names {
		for _, dedup := range []bool{false, true} {
			base := res.Point(name, dedup, retrieval.FP32).Result
			prevComm, prevNIC := base.CommTrace.Total(), base.NICWireBytes
			if prevComm <= 0 || prevNIC <= 0 {
				t.Fatalf("%s/dedup=%v: fp32 cell moved no traffic", name, dedup)
			}
			for _, prec := range precisionSweep[1:] {
				p := res.Point(name, dedup, prec).Result
				if c := p.CommTrace.Total(); c >= prevComm {
					t.Errorf("%s/dedup=%v/%s: comm bytes %g not below %g", name, dedup, prec, c, prevComm)
				} else {
					prevComm = c
				}
				if p.NICWireBytes >= prevNIC {
					t.Errorf("%s/dedup=%v/%s: NIC bytes %g not below %g", name, dedup, prec, p.NICWireBytes, prevNIC)
				} else {
					prevNIC = p.NICWireBytes
				}
			}
		}
	}
	for _, prec := range precisionSweep[1:] {
		e, ok := res.MaxAbsErr[prec]
		if !ok || e <= 0 {
			t.Errorf("%s: no measured output error (codec not engaged?)", prec)
		}
		if e > 0.5 {
			t.Errorf("%s: output error %g implausibly large", prec, e)
		}
	}
	tbl := res.SweepTable()
	if len(tbl.Rows) != cells {
		t.Errorf("sweep table has %d rows, want %d", len(tbl.Rows), cells)
	}
	if !strings.Contains(tbl.CSV(), "int8") {
		t.Error("sweep CSV missing int8 rows")
	}
}

// The sweep must be byte-identical at any worker count.
func TestPrecisionParallelInvariance(t *testing.T) {
	opts := precisionTestOptions()
	opts.Backends = []retrieval.Backend{&retrieval.Baseline{}, &retrieval.PGASFused{}}
	opts.Batches = 1
	opts.Parallel = 1
	serial, err := RunPrecision(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Parallel = 4
	parallel, err := RunPrecision(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial.Points {
		s, p := serial.Points[i], parallel.Points[i]
		if s.Result.TotalTime != p.Result.TotalTime || s.Result.NICWireBytes != p.Result.NICWireBytes {
			t.Errorf("%s/dedup=%v/%s: results differ across parallelism", s.Backend, s.Dedup, s.Precision)
		}
	}
	for prec, e := range serial.MaxAbsErr {
		if parallel.MaxAbsErr[prec] != e {
			t.Errorf("%s: measured error differs across parallelism", prec)
		}
	}
}
