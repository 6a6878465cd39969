package experiments

import (
	"testing"

	"pgasemb/internal/metrics"
	"pgasemb/internal/retrieval"
	"pgasemb/internal/serve"
	"pgasemb/internal/sim"
	"pgasemb/internal/workload"
)

// servingTestBase returns a small skewed timing-only configuration whose
// hot-row working set a partial cache can capture.
func servingTestBase() retrieval.Config {
	return retrieval.Config{
		GPUs:            2,
		TotalTables:     8,
		Rows:            2048,
		Dim:             64,
		BatchSize:       128,
		MinPooling:      1,
		MaxPooling:      64,
		Batches:         1,
		Seed:            2024,
		ChunksPerKernel: 4,
		Distribution:    workload.Zipf,
		ZipfExponent:    1.2,
	}
}

func servingTestHW() retrieval.HardwareParams {
	hw := retrieval.DefaultHardware()
	hw.GPU.MemoryCapacity = 8 << 20 // partial caches at the sweep's fractions
	return hw
}

// The sweep's headline property: at a fixed arrival rate near saturation,
// growing the hot-row cache must not worsen the PGAS backend's p99 and must
// strictly improve it by the largest fraction.
func TestServingP99ImprovesWithCacheFraction(t *testing.T) {
	s, err := servingSweep(ServingOptions{
		Rates:          []float64{2600},
		CacheFractions: []float64{0, 0.001, 0.01, 0.05},
		Duration:       1 * sim.Second,
		Serve:          serve.Config{MaxWait: 2 * sim.Millisecond},
	}, servingTestBase(), servingTestHW(), []retrieval.Backend{&retrieval.PGASFused{}})
	if err != nil {
		t.Fatal(err)
	}
	res := runSweep(t, s)
	p99 := res.P99Series("pgas-fused", 2600)
	if len(p99) != 4 {
		t.Fatalf("got %d p99 points, want 4", len(p99))
	}
	// Dispatch boundaries shift slightly between fractions (service times
	// differ), so allow a small absolute slack on the monotone series.
	if !metrics.Monotone(p99, -1, 0.1*p99[0]) {
		t.Fatalf("p99 not non-increasing in cache fraction: %v", p99)
	}
	if p99[len(p99)-1] >= p99[0] {
		t.Fatalf("largest cache did not improve p99: %v", p99)
	}
	for _, p := range res.Points {
		if p.CacheFraction > 0 && p.HitRate <= 0 {
			t.Fatalf("frac %g: hit rate %g not positive", p.CacheFraction, p.HitRate)
		}
		if p.Completed == 0 {
			t.Fatalf("frac %g: no completions", p.CacheFraction)
		}
	}
}

// An empty grid is a configuration error, not a silent empty table.
func TestServingSweepValidation(t *testing.T) {
	backends := []retrieval.Backend{&retrieval.PGASFused{}}
	if _, err := servingSweep(ServingOptions{Rates: []float64{100}}, servingTestBase(), servingTestHW(), backends); err == nil {
		t.Fatal("sweep without cache fractions accepted")
	}
	if _, err := servingSweep(ServingOptions{CacheFractions: []float64{0}}, servingTestBase(), servingTestHW(), backends); err == nil {
		t.Fatal("sweep without rates accepted")
	}
}
