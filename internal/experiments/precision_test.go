package experiments

import (
	"strings"
	"testing"

	"pgasemb/internal/retrieval"
)

// The sweep's acceptance criteria: every reduced precision strictly shrinks
// both the communication volume and the NIC wire traffic of its fp32 peer
// cell, the measured output errors are nonzero but small, and the table
// renders one row per cell.
func TestPrecisionSweep(t *testing.T) {
	// Cluster shape so the NIC column is live, trimmed to 2 batches and
	// 2 GPUs per node to stay test-sized.
	res := runSweep(t, precisionSweep(2, 2, 2, []retrieval.Backend{&retrieval.Baseline{}, &retrieval.PGASFused{}}))
	names := []string{"baseline", "pgas-fused"}
	cells := len(names) * 2 * len(precisions)
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
			for _, prec := range precisions[1:] {
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
	for _, prec := range precisions[1:] {
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
