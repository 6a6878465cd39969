package experiments

import (
	"testing"

	"pgasemb/internal/metrics"
	"pgasemb/internal/retrieval"
	"pgasemb/internal/serve"
	"pgasemb/internal/sim"
)

// The serving sweep's dedup axis: dedup points report real unique fractions
// and ship wire rows, and non-dedup points stay untouched.
func TestServingDedupAxisContent(t *testing.T) {
	// Deep pooling bags make the wire path of dedup win: a dispatch's gather
	// kernel runs far below saturation, where its time follows the bytes
	// each item moves, and a unique row moves one row where a pooled vector
	// gathers a whole bag (with pooling 1 the two move the same bytes, and
	// the expansion kernel tips the price to dense vectors).
	base := servingTestBase()
	// Small dispatches carry little redundancy over 2048 rows; concentrate
	// the traffic so batches repeat rows.
	base.Rows = 256
	base.ZipfExponent = 1.5
	s, err := servingSweep(ServingOptions{
		Rates:          []float64{2000},
		CacheFractions: []float64{0, 0.01},
		Dedups:         []bool{false, true},
		Duration:       200 * sim.Millisecond,
		Serve:          serve.Config{MaxWait: 2 * sim.Millisecond},
	}, base, servingTestHW(), []retrieval.Backend{&retrieval.PGASFused{}})
	if err != nil {
		t.Fatal(err)
	}
	res := runSweep(t, s)
	if len(res.Points) != 4 {
		t.Fatalf("got %d points, want 4 (2 fractions x 2 dedups)", len(res.Points))
	}
	headers := res.Table().Headers
	if headers[len(headers)-1] != "wire_saved_mb" {
		t.Fatalf("dedup columns missing from table headers: %v", headers)
	}
	for _, p := range res.Points {
		d := p.DedupStats
		if !p.Dedup {
			if d != (metrics.DedupCounters{}) {
				t.Errorf("dedup-off point reports dedup activity: %+v", p)
			}
			continue
		}
		if f := d.UniqueFraction(); f <= 0 || f > 1 {
			t.Errorf("dedup point unique fraction %g outside (0,1]", f)
		}
		// With a warm cache the eligible misses are the cold tail — nearly
		// all unique — so wire routes are only guaranteed uncached. Their
		// saved bytes are signed: a priced route may ship more unique rows
		// than the pooled vectors it replaces.
		if p.CacheFraction == 0 && d.WireRows <= 0 {
			t.Errorf("uncached dedup point shipped no wire rows: %+v", p)
		}
	}
}
