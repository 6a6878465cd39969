package sim

import "math/bits"

// The bulk kernels draw a whole slice per call. Each copies the generator
// state into a local, runs its loop and stores the state back, so the state
// stays in a register instead of making a round trip through memory on every
// draw. Each consumes exactly the draws of the scalar loop its comment names,
// in the same order, and leaves the same final state, so a stream is
// bit-identical whichever way it is drawn.

// AddIntn adds lo + Intn(n) to every element of dst in order and returns
// the sum of the values lo + Intn(n) it drew, as an int64. With pZero > 0
// every element first draws a coin, and an element whose Float64 falls
// below pZero draws no value and is left as it is. The draws are those of
// the scalar loop
//
//	for i := range dst {
//		if pZero > 0 && r.Float64() < pZero {
//			continue
//		}
//		dst[i] += T(lo + r.Intn(n))
//	}
//
// It panics if n <= 0.
func AddIntn[T int32 | int64](r *RNG, dst []T, lo, n int, pZero float64) (sum int64) {
	if n <= 0 {
		panic("sim: AddIntn with non-positive n")
	}
	if pZero > 0 {
		// Each element's value is a one-element run of the Lemire loop,
		// which keeps the coin test out of that loop.
		s := r.state
		for i := range dst {
			s += gamma
			if unit(Mix64(s)) >= pZero {
				var v int64
				s, v = addIntn(s, dst[i:i+1], lo, uint64(n))
				sum += v
			}
		}
		r.state = s
		return sum
	}
	r.state, sum = addIntn(r.state, dst, lo, uint64(n))
	return sum
}

// addIntn is AddIntn without coins from generator state s, returning the
// state after the draws and the sum of the values added. Each draw is
// Lemire's multiply-shift method, as in Intn. A draw whose low product word
// falls below bound has probability below bound/2^64, so lemireRetry
// handles it out of line.
func addIntn[T int32 | int64](s uint64, dst []T, lo int, bound uint64) (uint64, int64) {
	// Summing the draws alone, lo added once, keeps the loop as fast as a
	// sum-free one on amd64; summing lo + draw per element was ~5% slower.
	sum := int64(lo) * int64(len(dst))
	for i := range dst {
		s += gamma
		hi, low := bits.Mul64(Mix64(s), bound)
		if low < bound {
			hi, s = lemireRetry(hi, low, bound, s)
		}
		sum += int64(hi)
		dst[i] += T(lo + int(hi))
	}
	return s, sum
}

// lemireRetry finishes a draw whose low product word fell below bound: the
// draw is accepted unless low is below 2^64 mod bound (never, for a
// power-of-two bound), and a rejected draw is replaced by the next one until
// one is accepted. It returns the accepted draw's high word and the state
// after it.
//
//go:noinline
func lemireRetry(hi, low, bound, s uint64) (uint64, uint64) {
	thresh := -bound % bound
	for low < thresh {
		s += gamma
		hi, low = bits.Mul64(Mix64(s), bound)
	}
	return hi, s
}

// SkipIntn advances r past the draws of k values of Intn(n), to the state
// AddIntn with pZero == 0 leaves after k elements. For a power-of-two n
// every value takes one draw, and the state is a counter (draw k is
// Mix64(state + k·γ)), so the skip is arithmetic; otherwise it runs
// AddIntn's loop into a discarded buffer, rejections included, and panics
// as AddIntn does.
func SkipIntn(r *RNG, k, n int) {
	if n > 0 && n&(n-1) == 0 {
		r.state += uint64(k) * gamma
		return
	}
	var sink [256]int64
	for ; k > 0; k -= len(sink) {
		AddIntn(r, sink[:min(k, len(sink))], 0, n, 0)
	}
}

// Mods sets every element of dst to Uint64() % m in order, the draws of the
// scalar loop. It panics if m <= 0.
func (r *RNG) Mods(dst []int64, m int64) {
	if m <= 0 {
		panic("sim: Mods with non-positive m")
	}
	s := r.state
	for i := range dst {
		s += gamma
		dst[i] = int64(Mix64(s) % uint64(m))
	}
	r.state = s
}

// rankBlock is the number of draws Ranks takes per block.
const rankBlock = 256

// Ranks sets every element of dst to (Rank(r.Float64()) + off) mod Len() in
// order, the draws of the scalar loop, one Float64 each. off rotates the
// rank-to-index mapping; it panics unless 0 <= off < Len(). Each block of
// rankBlock draws takes two passes, which keeps Rank's data-dependent work
// out of the draw loop: guideRanks, then Rank on the draws it lists.
func (z *ZipfCDF) Ranks(r *RNG, dst []int64, off int64) {
	n := int64(len(z.cdf))
	if off < 0 || off >= n {
		panic("sim: Ranks offset outside [0, Len())")
	}
	var fix rankFixups
	s := r.state
	for len(dst) > 0 {
		blk := dst[:min(len(dst), rankBlock)]
		dst = dst[len(blk):]
		var nf uint32
		s, nf = z.guideRanks(s, blk, off, &fix)
		for f, at := range fix.at[:nf] {
			blk[at] = rotate(int64(z.Rank(fix.u[f])), off, n)
		}
	}
	r.state = s
}

// rankFixups lists a block's draws in spanning buckets: each one's index in
// the block and its uniform.
type rankFixups struct {
	at [rankBlock]uint8
	u  [rankBlock]float64
}

// guideRanks is Ranks' first pass over a block of at most rankBlock draws
// from generator state s. It stores each draw's guide floor, its rank unless
// the bucket spans several ranks, and returns the state after the block and
// the number of spanning draws listed in fix. It never branches on a draw:
// every draw is written into the list, which advances only for a spanning
// bucket.
func (z *ZipfCDF) guideRanks(s uint64, blk []int64, off int64, fix *rankFixups) (uint64, uint32) {
	guide, k, n := z.guide, z.k, int64(len(z.cdf))
	nf := uint32(0)
	for i := range blk {
		s += gamma
		u := unit(Mix64(s))
		j := int(u * k)
		lo, hi := guide[j], guide[j+1]
		blk[i] = rotate(int64(lo), off, n)
		fix.at[nf%rankBlock], fix.u[nf%rankBlock] = uint8(i), u
		nf += uint32(lo-hi) >> 31
	}
	return s, nf
}

// rotate returns (rank + off) mod n for rank and off in [0, n): the sum is
// below 2n, so one subtraction is the modulo.
func rotate(rank, off, n int64) int64 {
	v := rank + off
	if v >= n {
		v -= n
	}
	return v
}
