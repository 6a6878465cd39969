package experiments

import (
	"context"
	"testing"

	"pgasemb/internal/metrics"
	"pgasemb/internal/retrieval"
	"pgasemb/internal/serve"
	"pgasemb/internal/sim"
)

// The scaling sweep's dedup axis: every point carries the dedup-enabled
// runs, the counters show real savings, and the grown tables stay
// byte-identical at any worker count.
func TestScalingDedupAxisDeterministicAcrossParallelism(t *testing.T) {
	// Shrink the batch: dedup classification walks every pooled index, and
	// the paper-scale 16384-sample batch makes that a multi-second pass.
	opts := fastOpts(1)
	opts.Dedup = true
	opts.BatchSize = 96
	serial, err := RunScaling(context.Background(), WeakScaling, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Parallel = 6
	parallel, err := RunScaling(context.Background(), WeakScaling, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range []struct {
		name string
		s, p *Table
	}{
		{"speedups", serial.SpeedupTable(), parallel.SpeedupTable()},
		{"breakdown", serial.BreakdownTable(), parallel.BreakdownTable()},
	} {
		if pair.s.Render() != pair.p.Render() || pair.s.CSV() != pair.p.CSV() {
			t.Errorf("%s: parallel dedup table differs from serial", pair.name)
		}
	}
	for _, p := range serial.Points {
		if p.BaselineDedup == nil || p.PGASDedup == nil {
			t.Fatalf("%d GPUs: dedup runs missing", p.GPUs)
		}
		if p.GPUs < 2 {
			continue
		}
		if p.BaselineDedup.DedupStats.UniqueRows == 0 {
			t.Errorf("%d GPUs: baseline dedup classified no unique rows", p.GPUs)
		}
		if got, want := p.PGASDedup.DedupStats, p.BaselineDedup.DedupStats; got != want {
			t.Errorf("%d GPUs: backend dedup counters disagree: %+v vs %+v", p.GPUs, got, want)
		}
	}
	// Without the axis the extra runs must not exist and the tables keep
	// their original shape.
	plain, err := RunScaling(context.Background(), WeakScaling, fastOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Points[0].BaselineDedup != nil {
		t.Fatal("dedup runs present without Options.Dedup")
	}
	if n := len(plain.SpeedupTable().Headers); n != 5 {
		t.Fatalf("plain speedup table has %d headers, want 5", n)
	}
}

// The serving sweep's dedup axis: dedup points report real unique fractions
// and ship wire rows, non-dedup points stay untouched, and the table is
// byte-identical at any worker count.
func TestServingDedupAxisDeterministicAcrossParallelism(t *testing.T) {
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
	hw := servingTestHW()
	opts := ServingOptions{
		Rates:          []float64{2000},
		CacheFractions: []float64{0, 0.01},
		Dedups:         []bool{false, true},
		Sweep:          Sweep{Backends: []retrieval.Backend{&retrieval.PGASFused{}}},
		Duration:       200 * sim.Millisecond,
		Base:           &base,
		HW:             &hw,
		Serve:          serve.Config{MaxWait: 2 * sim.Millisecond},
	}
	var renders []string
	var results []*ServingResult
	for _, parallel := range []int{1, 4} {
		o := opts
		o.Parallel = parallel
		res, err := RunServing(context.Background(), o)
		if err != nil {
			t.Fatal(err)
		}
		renders = append(renders, res.Table().CSV()+res.Table().Render())
		results = append(results, res)
	}
	if renders[0] != renders[1] {
		t.Fatalf("serving dedup table differs between Parallel=1 and Parallel=4:\n%s\nvs\n%s",
			renders[0], renders[1])
	}
	res := results[0]
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
