package metrics

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestGeomeanKnown(t *testing.T) {
	// Paper Table 1: 2.10, 1.95, 1.87 -> geomean ~1.97.
	g := Geomean([]float64{2.10, 1.95, 1.87})
	if math.Abs(g-1.97) > 0.01 {
		t.Fatalf("geomean of Table 1 speedups = %v, want ~1.97", g)
	}
	// Paper Table 2: 2.95, 2.55, 2.44 -> geomean ~2.63.
	g2 := Geomean([]float64{2.95, 2.55, 2.44})
	if math.Abs(g2-2.64) > 0.02 {
		t.Fatalf("geomean of Table 2 speedups = %v, want ~2.63", g2)
	}
}

func TestGeomeanSingle(t *testing.T) {
	if g := Geomean([]float64{7}); g != 7 {
		t.Fatalf("geomean of singleton = %v", g)
	}
}

func TestGeomeanEmpty(t *testing.T) {
	// Empty input is the documented "no data" value, not a crash: a chaos
	// sweep whose filter matched nothing still renders its table.
	if g := Geomean(nil); g != 0 {
		t.Fatalf("empty geomean = %v, want 0", g)
	}
}

func TestGeomeanPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-positive geomean did not panic")
		}
	}()
	Geomean([]float64{1, 0})
}

func TestPercentileEmpty(t *testing.T) {
	// A degraded serving run that completed zero requests has no tail to
	// report; the documented value is 0.
	if p := Percentile(nil, 99); p != 0 {
		t.Fatalf("empty percentile = %v, want 0", p)
	}
}

func TestGeomeanLEArithmeticMeanProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v) + 1 // strictly positive
		}
		return Geomean(xs) <= Mean(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMean(t *testing.T) {
	if m := Mean([]float64{1, 2, 3}); m != 2 {
		t.Fatalf("mean = %v", m)
	}
	defer func() {
		if recover() == nil {
			t.Error("empty mean did not panic")
		}
	}()
	Mean(nil)
}

func TestSpeedup(t *testing.T) {
	if s := Speedup(10, 5); s != 2 {
		t.Fatalf("Speedup = %v", s)
	}
	defer func() {
		if recover() == nil {
			t.Error("non-positive speedup did not panic")
		}
	}()
	Speedup(0, 5)
}

func TestRelativeError(t *testing.T) {
	if e := RelativeError(11, 10); math.Abs(e-0.1) > 1e-12 {
		t.Fatalf("rel err = %v", e)
	}
	defer func() {
		if recover() == nil {
			t.Error("relative error vs zero did not panic")
		}
	}()
	RelativeError(1, 0)
}

func TestWithinFactor(t *testing.T) {
	if !WithinFactor(1.9, 2.0, 1.3) {
		t.Fatal("1.9 should be within 1.3x of 2.0")
	}
	if WithinFactor(0.9, 2.0, 1.3) {
		t.Fatal("0.9 should not be within 1.3x of 2.0")
	}
	if WithinFactor(-1, 2, 1.3) || WithinFactor(1, -2, 1.3) {
		t.Fatal("non-positive values never match")
	}
	defer func() {
		if recover() == nil {
			t.Error("f < 1 did not panic")
		}
	}()
	WithinFactor(1, 1, 0.5)
}

func TestMonotone(t *testing.T) {
	if !Monotone([]float64{3, 2, 2.05, 1}, -1, 0.1) {
		t.Fatal("near-decreasing within slack rejected")
	}
	if Monotone([]float64{3, 2, 2.5}, -1, 0.1) {
		t.Fatal("clear increase accepted as decreasing")
	}
	if !Monotone([]float64{1, 2, 3}, +1, 0) {
		t.Fatal("increasing rejected")
	}
	if !Monotone(nil, +1, 0) || !Monotone([]float64{5}, -1, 0) {
		t.Fatal("degenerate slices should be monotone")
	}
	defer func() {
		if recover() == nil {
			t.Error("dir=0 did not panic")
		}
	}()
	Monotone([]float64{1}, 0, 0)
}

func TestImbalance(t *testing.T) {
	if got := Imbalance([]float64{4, 4, 4, 4}); got != 1 {
		t.Fatalf("balanced loads: got %g, want 1", got)
	}
	if got := Imbalance([]float64{8, 0, 0, 0}); got != 4 {
		t.Fatalf("all load on one of four: got %g, want 4", got)
	}
	if got := Imbalance([]float64{6, 2}); got != 1.5 {
		t.Fatalf("got %g, want 1.5", got)
	}
	if got := Imbalance(nil); got != 0 {
		t.Fatalf("empty slice: got %g, want 0", got)
	}
	if got := Imbalance([]float64{0, 0}); got != 0 {
		t.Fatalf("all-zero loads: got %g, want 0", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("negative load did not panic")
		}
	}()
	Imbalance([]float64{1, -1})
}

// Sub undoes Add: the activity after a snapshot is the later total minus it.
func TestCacheCountersSubUndoesAdd(t *testing.T) {
	before := CacheCounters{Hits: 5, Misses: 3, Insertions: 3, Evictions: 1, FrozenRejects: 2}
	run := CacheCounters{Hits: 7, Misses: 4, Insertions: 2, Evictions: 2}
	if got := before.Add(run).Sub(before); got != run {
		t.Fatalf("(before+run)-before = %+v, want %+v", got, run)
	}
}

// Nearest rank: the p-th percentile of n samples is the ceil(p/100·n)-th
// smallest, so it is always one of the samples.
func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50} // the textbook nearest-rank example
	cases := []struct {
		name string
		xs   []float64
		p    float64
		want float64
	}{
		{"p5-is-minimum", xs, 5, 15},
		{"p30-rounds-rank-up", xs, 30, 20},
		{"p40-exact-rank", xs, 40, 20},
		{"p50-median-odd", xs, 50, 35},
		{"p50-median-even", []float64{4, 1, 3, 2}, 50, 2},
		{"p99-of-hundred", seq(100), 99, 99},
		{"p100-is-maximum", xs, 100, 50},
		{"tiny-p-is-minimum", xs, 1e-9, 15},
		{"singleton", []float64{7}, 95, 7},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Percentile(c.xs, c.p); got != c.want {
				t.Fatalf("Percentile(%v, %g) = %g, want %g", c.xs, c.p, got, c.want)
			}
		})
	}
}

// seq returns 1, 2, ..., n in descending order, so a percentile over it
// only comes out right if the input is sorted first.
func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i)
	}
	return xs
}

func TestPercentileLeavesInputUnsorted(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("Percentile reordered its input: %v", xs)
	}
}

func TestPercentileRejectsOutOfRange(t *testing.T) {
	for _, p := range []float64{0, -5, 100.5, math.NaN()} {
		t.Run(fmt.Sprintf("p=%g", p), func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("Percentile(_, %g) did not panic", p)
				}
			}()
			Percentile([]float64{1, 2}, p)
		})
	}
}

func TestCacheCountersHitRate(t *testing.T) {
	cases := []struct {
		name     string
		c        CacheCounters
		accesses int64
		want     float64
	}{
		{"never-probed", CacheCounters{Insertions: 3}, 0, 0},
		{"all-hits", CacheCounters{Hits: 8}, 8, 1},
		{"all-misses", CacheCounters{Misses: 5}, 5, 0},
		{"mixed", CacheCounters{Hits: 3, Misses: 1, Evictions: 9}, 4, 0.75},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.c.Accesses(); got != c.accesses {
				t.Errorf("Accesses = %d, want %d", got, c.accesses)
			}
			if got := c.c.HitRate(); got != c.want {
				t.Errorf("HitRate = %g, want %g", got, c.want)
			}
		})
	}
}

func TestRetryCountersAdd(t *testing.T) {
	a := RetryCounters{Drops: 1, Retries: 2, Exhausted: 3, Shed: 4, Rejected: 5}
	b := RetryCounters{Drops: 10, Retries: 20, Exhausted: 30, Shed: 40, Rejected: 50}
	want := RetryCounters{Drops: 11, Retries: 22, Exhausted: 33, Shed: 44, Rejected: 55}
	if got := a.Add(b); got != want {
		t.Fatalf("Add = %+v, want %+v", got, want)
	}
	if got := a.Add(RetryCounters{}); got != a {
		t.Fatalf("adding zero changed the counters: %+v", got)
	}
}

func TestDedupCountersUniqueFraction(t *testing.T) {
	cases := []struct {
		name string
		c    DedupCounters
		want float64
	}{
		{"nothing-eligible", DedupCounters{Batches: 2, UniqueRows: 0}, 0},
		{"no-duplicates", DedupCounters{EligibleIdx: 40, UniqueRows: 40}, 1},
		{"quarter-unique", DedupCounters{EligibleIdx: 40, UniqueRows: 10}, 0.25},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.c.UniqueFraction(); got != c.want {
				t.Fatalf("UniqueFraction = %g, want %g", got, c.want)
			}
		})
	}
}

// Add folds two runs into one view: counts add, and the batch-level unique
// fraction of the sum is the reference-weighted mean of the parts'.
func TestDedupCountersAdd(t *testing.T) {
	a := DedupCounters{Batches: 1, EligibleIdx: 100, EligibleVecs: 60, UniqueRows: 50,
		WireRows: 30, WireVecs: 10, WireSavedBytes: 2048}
	b := DedupCounters{Batches: 3, EligibleIdx: 300, EligibleVecs: 90, UniqueRows: 30,
		WireRows: 20, WireVecs: 5, WireSavedBytes: 512.5}
	want := DedupCounters{Batches: 4, EligibleIdx: 400, EligibleVecs: 150, UniqueRows: 80,
		WireRows: 50, WireVecs: 15, WireSavedBytes: 2560.5}
	got := a.Add(b)
	if got != want {
		t.Fatalf("Add = %+v, want %+v", got, want)
	}
	if f := got.UniqueFraction(); f != 0.2 {
		t.Fatalf("folded UniqueFraction = %g, want 0.2", f)
	}
}
