package sim

import (
	"math"
	"math/bits"
)

// RNG is a small, fast, deterministic random-number generator based on
// splitmix64. Every stochastic component of the simulator draws from an RNG
// seeded explicitly, so simulations replay bit-exactly. RNG is deliberately
// independent of math/rand so that the stream is stable across Go releases.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Distinct seeds give
// well-decorrelated streams (splitmix64 is the recommended seeding function
// for xoshiro-family generators for exactly this reason).
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Split returns a new RNG derived from this one, suitable for giving a
// subsystem its own independent stream.
func (r *RNG) Split() *RNG {
	return &RNG{state: r.Uint64()}
}

// gamma is splitmix64's state increment, the golden ratio in 64 bits.
const gamma = 0x9e3779b97f4a7c15

// Mix64 is splitmix64's finaliser: a bijection on 64-bit words with full
// avalanche. The generator's output is Mix64 of its advanced state, and the
// embedding row hash applies it to raw indices.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	r.state += gamma
	return Mix64(r.state)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method: unbiased and branch-light.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// IntRange returns a uniform integer in [lo, hi] inclusive. It panics if
// hi < lo.
func (r *RNG) IntRange(lo, hi int) int {
	if hi < lo {
		panic("sim: IntRange with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return unit(r.Uint64())
}

// unit maps 64 random bits to a uniform float64 in [0, 1).
func unit(v uint64) float64 {
	return float64(v>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate (Box–Muller; one value per
// call keeps the generator state trajectory simple and reproducible).
func (r *RNG) NormFloat64() float64 {
	// Guard against log(0).
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	v := r.Float64()
	return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
}

// Perm returns a random permutation of [0, n) (Fisher–Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// ZipfCDF is the immutable half of an exact Zipf sampler over [0, n) with
// exponent s > 0: the cumulative table plus a guide table that narrows each
// lookup to one short CDF segment. It holds no RNG, so one table can be
// built once and shared read-only by any number of samplers and goroutines.
//
// The guide has K+1 entries, K the least power of two >= max(n, 2^16):
// guide[j] is the first rank whose cdf >= j/K. A uniform u in [0, 1) falls
// in bucket j = int(u*K), and its rank — the first with cdf >= u — lies in
// [guide[j], guide[j+1]]. Because K is a power of two, u*K and j/K are exact
// in float64, so the guided search returns exactly the rank a binary search
// over the whole table would. The 2^16 floor (a 256 KB guide) is for small
// tables: at K = n a large share of draws land in buckets that span several
// ranks and pay a data-dependent search (about 0.47 steps per Zipf(1.2)
// draw at n = 4096), while at K >= 16n almost every bucket pins its rank
// (about 0.06 steps). Tables of 2^16 ranks and more keep K the least power
// of two >= n.
type ZipfCDF struct {
	s     float64
	cdf   []float64
	guide []int32
	k     float64 // K, the guide's bucket count
}

// minZipfGuide is the least guide bucket count, a power of two.
const minZipfGuide = 1 << 16

// NewZipfCDF builds the table in O(n + 2^16). It panics for n <= 0, s <= 0,
// or n beyond int32 ranks.
func NewZipfCDF(s float64, n int) *ZipfCDF {
	if n <= 0 || s <= 0 || n > math.MaxInt32 {
		panic("sim: NewZipfCDF requires 0 < n <= MaxInt32 and s > 0")
	}
	cdf := make([]float64, n)
	var sum float64
	for i := 0; i < n; i++ {
		sum += math.Pow(float64(i+1), -s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1 // guard against float round-off

	k := minZipfGuide
	for k < n {
		k *= 2
	}
	guide := make([]int32, k+1)
	r := 0
	for j := range guide {
		// cdf[n-1] == 1 >= j/k, so the scan always stops inside the table.
		t := float64(j) / float64(k)
		for cdf[r] < t {
			r++
		}
		guide[j] = int32(r)
	}
	return &ZipfCDF{s: s, cdf: cdf, guide: guide, k: float64(k)}
}

// Len returns n, the number of ranks.
func (z *ZipfCDF) Len() int { return len(z.cdf) }

// Exponent returns s.
func (z *ZipfCDF) Exponent() float64 { return z.s }

// Probabilities returns a fresh copy of the per-rank probability mass
// function p_r (r in [0, n)). Analytic workload expectations — e.g. the
// expected number of distinct rows in a batch, which the dedup tests pin
// measurements against — are computed from it.
func (z *ZipfCDF) Probabilities() []float64 {
	probs := make([]float64, len(z.cdf))
	prev := 0.0
	for i, c := range z.cdf {
		probs[i] = c - prev
		prev = c
	}
	return probs
}

// maxRankCount is the widest guide bucket Rank resolves by counting.
const maxRankCount = 64

// Rank returns the first rank whose cdf >= u, for u in [0, 1): the inverse
// CDF lookup behind every draw. The rank lies in u's guide bucket [lo, hi].
// It is lo plus the number of ranks in [lo, hi) whose cdf is below u, exact
// because the CDF is non-decreasing; a bucket wider than maxRankCount is
// binary-searched instead.
func (z *ZipfCDF) Rank(u float64) int {
	j := int(u * z.k)
	lo, hi := int(z.guide[j]), int(z.guide[j+1])
	if hi-lo <= maxRankCount {
		rank := lo
		for _, c := range z.cdf[lo:hi] {
			if c < u {
				rank++
			}
		}
		return rank
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Sampler pairs the table with rng. Each draw consumes one rng.Float64.
func (z *ZipfCDF) Sampler(rng *RNG) *ZipfTable {
	return &ZipfTable{ZipfCDF: z, rng: rng}
}

// ZipfTable samples from an exact Zipf distribution: a shared ZipfCDF plus
// the RNG its draws consume. Construction is O(n + 2^16); sampling is
// expected O(1) for any n and s: every guide bucket is hit with probability
// 1/K and the bucket segments total at most n+K ranks, so (by Jensen) a draw
// takes at most log2(n/K+1) <= 1 search step on average. The embedding
// workloads use it for hot-item skew experiments.
type ZipfTable struct {
	*ZipfCDF
	rng *RNG
}

// NewZipfTable builds a sampler with its own table. It panics for n <= 0 or
// s <= 0.
func NewZipfTable(rng *RNG, s float64, n int) *ZipfTable {
	return NewZipfCDF(s, n).Sampler(rng)
}

// Next draws the next variate in [0, n).
func (zt *ZipfTable) Next() int {
	return zt.Rank(zt.rng.Float64())
}
