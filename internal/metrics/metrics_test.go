package metrics

import (
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

func TestScalingFactors(t *testing.T) {
	// Weak: runtime doubled -> factor 0.5.
	if f := WeakScalingFactor(10, 20); f != 0.5 {
		t.Fatalf("weak factor = %v", f)
	}
	// Strong: runtime halved -> factor 2 (ideal for 2 GPUs).
	if f := StrongScalingFactor(10, 5); f != 2 {
		t.Fatalf("strong factor = %v", f)
	}
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
