package sim

import (
	"math"
	"slices"
	"testing"
)

// FuzzBulkDraws holds every bulk kernel to the scalar loop its comment
// names: the same outputs and the same final generator state, for any seed,
// offset lo, bound n, slice length, coin probability and Zipf drift offset.
// The inputs are folded into each kernel's domain. The corpus includes an n
// of about 3/4 of MaxInt, where Lemire's method rejects about a quarter of
// the draws on 64-bit hosts, so the retry path runs, in AddIntn and in
// SkipIntn, which must leave the state AddIntn leaves without producing the
// values. AddIntn's returned sum is held to the values the loop adds.
//
// Ranks is held to the whole-table binary search, so a fault it shares
// with Rank cannot hide. Its Zipf exponent is 1+pZero over 1 + n%5000
// ranks. The corpus reaches both of Rank's paths with lengths that are not
// multiples of Ranks' 256-draw block: at s = 1.99 over 4999 ranks the tail
// guide buckets span hundreds of ranks, and seed 86 sends five draws to the
// binary-search fallback. Two seeds are constructed by inverting the
// generator so that one draw equals a CDF value exactly, where a count of
// cdf <= u instead of cdf < u is off by one: draw 499 of the Ranks section
// equals cdf[3000] of Zipf(1.2) over 4097 ranks (a two-rank bucket,
// counted), and draw 750 equals cdf[3500] of Zipf(1.99) over 4999 ranks (a
// 294-rank bucket, binary-searched).
func FuzzBulkDraws(f *testing.F) {
	f.Add(uint64(1), 1, 128, uint16(300), 0.0, int64(0))
	f.Add(uint64(2), 1, 32, uint16(64), 0.25, int64(1))
	f.Add(uint64(7), 0, 41, uint16(97), 0.3, int64(5))
	f.Add(uint64(3), -5, math.MaxInt/4*3, uint16(400), 0.0, int64(4000))
	f.Add(uint64(4), 9, math.MaxInt/4*3, uint16(400), 0.5, int64(-3))
	f.Add(uint64(5), 2, 1, uint16(10), 0.999, int64(1<<40+7))
	f.Add(uint64(86), 3, 4998, uint16(2047), 0.99, int64(11))
	f.Add(uint64(0xdca8e05760e03813), 0, 4096, uint16(1000), 0.2, int64(17))
	f.Add(uint64(0xadd37b07bd8fdd79), 0, 4998, uint16(1500), 0.99, int64(17))
	f.Fuzz(func(t *testing.T, seed uint64, lo, n int, length uint16, pZero float64, off int64) {
		if n <= 0 {
			n = n&math.MaxInt | 1
		}
		if math.IsNaN(pZero) || math.IsInf(pZero, 0) {
			pZero = 0
		}
		pZero = math.Abs(pZero)
		pZero -= math.Floor(pZero)
		size := int(length % 2048)

		got64, want64 := make([]int64, size), make([]int64, size)
		got32, want32 := make([]int32, size), make([]int32, size)
		for i := range got64 {
			got64[i], want64[i] = int64(3*i-7), int64(3*i-7)
			got32[i], want32[i] = int32(5*i+1), int32(5*i+1)
		}
		check := func(kernel string, a, b *RNG, equal bool) {
			t.Helper()
			if !equal {
				t.Fatalf("%s (seed %d, lo %d, n %d, len %d, pZero %v): outputs differ from the scalar loop",
					kernel, seed, lo, n, size, pZero)
			}
			if a.state != b.state {
				t.Fatalf("%s (seed %d, lo %d, n %d, len %d, pZero %v): final state %#x, scalar loop %#x",
					kernel, seed, lo, n, size, pZero, a.state, b.state)
			}
		}

		a, b := NewRNG(seed), NewRNG(seed)
		sum := AddIntn(a, got64, lo, n, pZero)
		var added int64
		for i := range want64 {
			if pZero > 0 && b.Float64() < pZero {
				continue
			}
			v := b.Intn(n)
			want64[i] += int64(lo + v)
			added += int64(lo) + int64(v)
		}
		check("AddIntn[int64]", a, b, slices.Equal(got64, want64))
		if sum != added {
			t.Fatalf("AddIntn (seed %d, lo %d, n %d, len %d, pZero %v): returned sum %d, values added %d",
				seed, lo, n, size, pZero, sum, added)
		}

		// SkipIntn leaves the state AddIntn without coins leaves, and over
		// n = 1 the state of as many Uint64 draws.
		skip, draw := NewRNG(seed), NewRNG(seed)
		SkipIntn(skip, size, n)
		AddIntn(draw, make([]int64, size), lo, n, 0)
		check("SkipIntn", skip, draw, true)
		SkipIntn(skip, size, 1)
		for range size {
			draw.Uint64()
		}
		check("SkipIntn(n=1)", skip, draw, true)

		AddIntn(a, got32, lo, n, pZero)
		for i := range want32 {
			if pZero > 0 && b.Float64() < pZero {
				continue
			}
			want32[i] += int32(lo + b.Intn(n))
		}
		check("AddIntn[int32]", a, b, slices.Equal(got32, want32))

		m := off
		if m <= 0 {
			m = m&math.MaxInt64 | 1
		}
		a.Mods(got64, m)
		for i := range want64 {
			want64[i] = int64(b.Uint64() % uint64(m))
		}
		check("Mods", a, b, slices.Equal(got64, want64))

		zn := 1 + int(uint(n)%5000)
		z := NewZipfCDF(1+pZero, zn)
		drift := int64(uint64(off) % uint64(zn))
		z.Ranks(a, got64, drift)
		for i := range want64 {
			want64[i] = (int64(fullSearch(z.cdf, b.Float64())) + drift) % int64(zn)
		}
		check("Ranks", a, b, slices.Equal(got64, want64))
	})
}
