package trace

import (
	"math"
	"testing"
	"testing/quick"

	"pgasemb/internal/sim"
)

func TestVolumeTraceCumulative(t *testing.T) {
	var v VolumeTrace
	v.Add(0, 10, 100)
	v.Add(5, 15, 200)
	cases := []struct {
		t    sim.Time
		want float64
	}{
		{0, 0},
		{5, 50},
		{10, 100 + 100},
		{15, 300},
		{100, 300},
	}
	for _, c := range cases {
		if got := v.CumulativeAt(c.t); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("CumulativeAt(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	if v.Total() != 300 {
		t.Fatalf("Total = %v", v.Total())
	}
}

func TestVolumeTraceInstantaneous(t *testing.T) {
	var v VolumeTrace
	v.Add(5, 5, 42)
	if got := v.CumulativeAt(4.999); got != 0 {
		t.Fatalf("before instant: %v", got)
	}
	if got := v.CumulativeAt(5); got != 42 {
		t.Fatalf("at instant: %v", got)
	}
}

func TestVolumeTraceZeroBytesIgnored(t *testing.T) {
	var v VolumeTrace
	v.Add(0, 1, 0)
	if len(v.Intervals()) != 0 {
		t.Fatal("zero-byte interval was recorded")
	}
}

func TestVolumeTracePanics(t *testing.T) {
	var v VolumeTrace
	func() {
		defer func() {
			if recover() == nil {
				t.Error("inverted interval did not panic")
			}
		}()
		v.Add(5, 3, 10)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative bytes did not panic")
			}
		}()
		v.Add(0, 1, -1)
	}()
}

func TestRateSeriesSumsToTotal(t *testing.T) {
	var v VolumeTrace
	v.Add(0, 4, 400)
	v.Add(2, 6, 600)
	pts := v.RateSeries(0, 6, 12)
	var sum float64
	for _, p := range pts {
		if p.V < -1e-9 {
			t.Fatalf("negative rate bin at %v: %v", p.T, p.V)
		}
		sum += p.V
	}
	if math.Abs(sum-1000) > 1e-6 {
		t.Fatalf("rate bins sum to %v, want 1000", sum)
	}
}

func TestSeriesValidation(t *testing.T) {
	var v VolumeTrace
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero bins did not panic")
			}
		}()
		v.CumulativeSeries(0, 1, 0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("inverted window did not panic")
			}
		}()
		v.CumulativeSeries(2, 1, 4)
	}()
}

// Property: cumulative volume is monotone non-decreasing in time.
func TestCumulativeMonotoneProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		var v VolumeTrace
		for i := 0; i < 10; i++ {
			start := rng.Float64() * 10
			v.Add(start, start+rng.Float64()*5, rng.Float64()*100)
		}
		prev := -1.0
		for i := 0; i <= 50; i++ {
			c := v.CumulativeAt(sim.Time(i) * 0.3)
			if c < prev-1e-9 {
				return false
			}
			prev = c
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBreakdownBasics(t *testing.T) {
	var b Breakdown
	b.Add("Computation", 10)
	b.Add("Communication", 5)
	b.Accumulate("Communication", 2)
	b.Accumulate("Sync+Unpack", 3)
	if b.Get("Communication") != 7 {
		t.Fatalf("Communication = %v", b.Get("Communication"))
	}
	if b.Get("missing") != 0 {
		t.Fatal("missing component should be 0")
	}
	if b.Total() != 20 {
		t.Fatalf("Total = %v", b.Total())
	}
	comps := b.Components()
	want := []string{"Computation", "Communication", "Sync+Unpack"}
	if len(comps) != len(want) {
		t.Fatalf("Components = %v", comps)
	}
	for i := range want {
		if comps[i].Name != want[i] {
			t.Fatalf("Components = %v", comps)
		}
	}
}

func TestBreakdownNegativePanics(t *testing.T) {
	var b Breakdown
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative Add did not panic")
			}
		}()
		b.Add("x", -1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative Accumulate did not panic")
			}
		}()
		b.Accumulate("x", -1)
	}()
}

func TestMergeMaxTakesWorstPerComponent(t *testing.T) {
	a := &Breakdown{}
	a.Add("comp", 10)
	a.Add("comm", 4)
	b := &Breakdown{}
	b.Add("comp", 8)
	b.Add("comm", 6)
	b.Add("sync", 1)
	m := MergeMax(a, b)
	if m.Get("comp") != 10 || m.Get("comm") != 6 || m.Get("sync") != 1 {
		t.Fatalf("MergeMax = %+v", m.Components())
	}
	comps := m.Components()
	if len(comps) != 3 || comps[0].Name != "comp" || comps[1].Name != "comm" || comps[2].Name != "sync" {
		t.Fatalf("MergeMax order = %v", comps)
	}
}

func TestIntervalsAccessor(t *testing.T) {
	var v VolumeTrace
	v.Add(1, 2, 10)
	v.Add(3, 4, 20)
	ivs := v.Intervals()
	if len(ivs) != 2 || ivs[0].Bytes != 10 || ivs[1].Start != 3 {
		t.Fatalf("Intervals = %+v", ivs)
	}
}

func TestCumulativeSeriesEndpoints(t *testing.T) {
	var v VolumeTrace
	v.Add(0, 10, 100)
	pts := v.CumulativeSeries(0, 10, 5)
	if len(pts) != 6 {
		t.Fatalf("series length = %d", len(pts))
	}
	if pts[0].V != 0 || pts[5].V != 100 {
		t.Fatalf("endpoints = %v, %v", pts[0].V, pts[5].V)
	}
}
