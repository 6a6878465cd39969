package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed streams diverged at draw %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions between different seeds in 100 draws", same)
	}
}

func TestRNGSplitIndependent(t *testing.T) {
	parent := NewRNG(7)
	child := parent.Split()
	// Child stream should not simply replay the parent stream.
	p2 := NewRNG(7)
	p2.Uint64() // consume the split draw
	matches := 0
	for i := 0; i < 100; i++ {
		if child.Uint64() == p2.Uint64() {
			matches++
		}
	}
	if matches > 1 {
		t.Fatalf("child stream tracks parent stream (%d matches)", matches)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(3)
	for _, n := range []int{1, 2, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	r := NewRNG(1)
	for _, n := range []int{0, -5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			r.Intn(n)
		}()
	}
}

func TestIntnRoughlyUniform(t *testing.T) {
	r := NewRNG(99)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d count %d deviates >5 sigma from %v", i, c, want)
		}
	}
}

func TestIntRange(t *testing.T) {
	r := NewRNG(5)
	sawLo, sawHi := false, false
	for i := 0; i < 10000; i++ {
		v := r.IntRange(3, 8)
		if v < 3 || v > 8 {
			t.Fatalf("IntRange(3,8) = %d", v)
		}
		if v == 3 {
			sawLo = true
		}
		if v == 8 {
			sawHi = true
		}
	}
	if !sawLo || !sawHi {
		t.Fatal("IntRange never produced an endpoint")
	}
	// Degenerate single-value range.
	if v := r.IntRange(4, 4); v != 4 {
		t.Fatalf("IntRange(4,4) = %d", v)
	}
}

func TestIntRangePanicsOnInverted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("IntRange(5,4) did not panic")
		}
	}()
	NewRNG(1).IntRange(5, 4)
}

func TestFloat64InUnitInterval(t *testing.T) {
	r := NewRNG(11)
	var sum float64
	const draws = 100000
	for i := 0; i < draws; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
		sum += v
	}
	if mean := sum / draws; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean of Float64 = %v, want ~0.5", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(13)
	const draws = 200000
	var sum, sumSq float64
	for i := 0; i < draws; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / draws
	variance := sumSq/draws - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := NewRNG(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZipfTableBounds(t *testing.T) {
	zt := NewZipfTable(NewRNG(17), 1.0, 50)
	for i := 0; i < 10000; i++ {
		v := zt.Next()
		if v < 0 || v >= 50 {
			t.Fatalf("ZipfTable.Next = %d out of range", v)
		}
	}
}

func TestZipfTableSkew(t *testing.T) {
	zt := NewZipfTable(NewRNG(19), 1.2, 1000)
	counts := make([]int, 1000)
	const draws = 200000
	for i := 0; i < draws; i++ {
		counts[zt.Next()]++
	}
	if counts[0] <= counts[10] || counts[10] <= counts[100] {
		t.Fatalf("Zipf counts not decreasing: c0=%d c10=%d c100=%d",
			counts[0], counts[10], counts[100])
	}
	// Rank-0 frequency should be close to 1/H where H = sum k^-1.2.
	var h float64
	for k := 1; k <= 1000; k++ {
		h += math.Pow(float64(k), -1.2)
	}
	want := float64(draws) / h
	if math.Abs(float64(counts[0])-want) > 0.1*want {
		t.Fatalf("rank-0 count %d deviates >10%% from expected %v", counts[0], want)
	}
}

// fullSearch is the guide-free inverse-CDF lookup: the first rank whose cdf
// >= u, by binary search over the whole table.
func fullSearch(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// TestZipfGuideMatchesBinarySearch pins the guided lookup to the full-table
// binary search it replaces: the same rank for every draw of a twin RNG and
// for every bucket edge u = j/K and its float neighbours, at table sizes on
// both sides of the guide's 2^16-bucket floor.
func TestZipfGuideMatchesBinarySearch(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 4096, 4097, 1 << 16, 1<<16 + 1, 262144} {
		for _, s := range []float64{0.5, 1.05, 1.2, 2.5} {
			zt := NewZipfTable(NewRNG(uint64(n)*31+uint64(s*100)), s, n)
			twin := NewRNG(uint64(n)*31 + uint64(s*100))
			for i := 0; i < 20000; i++ {
				u := twin.Float64()
				if got, want := zt.Next(), fullSearch(zt.cdf, u); got != want {
					t.Fatalf("n=%d s=%v draw %d (u=%v): guided rank %d, full search %d", n, s, i, u, got, want)
				}
			}
			k, want := int(zt.k), 1
			for want < max(n, 1<<16) {
				want *= 2
			}
			if k != want || len(zt.guide) != k+1 {
				t.Fatalf("n=%d: guide has %d buckets (%d entries), want %d, the least power of two >= max(n, 2^16)",
					n, k, len(zt.guide), want)
			}
			for j := 0; j < k; j++ {
				edge := float64(j) / float64(k)
				for _, u := range []float64{edge, math.Nextafter(edge, 1), math.Nextafter(edge, 0)} {
					if u < 0 || u >= 1 {
						continue
					}
					if got, want := zt.Rank(u), fullSearch(zt.cdf, u); got != want {
						t.Fatalf("n=%d s=%v edge u=%v: guided rank %d, full search %d", n, s, u, got, want)
					}
				}
			}
		}
	}
}

// FuzzZipfRank holds the guided lookup to the full-table binary search for
// any u in [0, 1), any exponent s > 0 and any table size n up to 2^18 (both
// sides of the guide's floor). The inputs are folded into those ranges.
func FuzzZipfRank(f *testing.F) {
	f.Add(0.0, 1.2, 4096)
	f.Add(0.5, 1.2, 1)
	f.Add(math.Nextafter(1, 0), 0.5, 65536)
	f.Add(0.999, 2.5, 65537)
	f.Add(1e-300, 1e-9, 3)
	f.Add(0.25, 80.0, 262143)
	f.Fuzz(func(t *testing.T, u, s float64, n int) {
		if math.IsNaN(u) || math.IsInf(u, 0) || math.IsNaN(s) || math.IsInf(s, 0) || s == 0 {
			t.Skip()
		}
		u = math.Abs(u)
		u -= math.Floor(u)
		s = math.Abs(s)
		n = 1 + int(uint(n)%(1<<18))
		z := NewZipfCDF(s, n)
		if got, want := z.Rank(u), fullSearch(z.cdf, u); got != want {
			t.Fatalf("n=%d s=%v u=%v: guided rank %d, full search %d", n, s, u, got, want)
		}
	})
}

func TestZipfCDFSharedAcrossSamplers(t *testing.T) {
	cdf := NewZipfCDF(1.2, 1000)
	a, b := cdf.Sampler(NewRNG(3)), NewZipfTable(NewRNG(3), 1.2, 1000)
	for i := 0; i < 1000; i++ {
		if x, y := a.Next(), b.Next(); x != y {
			t.Fatalf("draw %d: shared-table sampler %d, private-table sampler %d", i, x, y)
		}
	}
	if cdf.Len() != 1000 || cdf.Exponent() != 1.2 {
		t.Fatalf("Len/Exponent = %d/%v, want 1000/1.2", cdf.Len(), cdf.Exponent())
	}
}

func TestZipfTableInvalidArgs(t *testing.T) {
	for _, c := range []struct {
		s float64
		n int
	}{{0, 10}, {-1, 10}, {1, 0}, {1, -3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewZipfTable(s=%v, n=%d) did not panic", c.s, c.n)
				}
			}()
			NewZipfTable(NewRNG(1), c.s, c.n)
		}()
	}
}
