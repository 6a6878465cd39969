package sim

import "math/bits"

// The bulk kernels draw a whole slice per call. Each copies the generator
// state into a local, runs its loop and stores the state back, so the state
// stays in a register instead of making a round trip through memory on every
// draw. Each consumes exactly the draws of the scalar loop its comment names,
// in the same order, and leaves the same final state, so a stream is
// bit-identical whichever way it is drawn.

// AddIntn adds lo + Intn(n) to every element of dst in order. With pZero > 0
// every element first draws a coin, and an element whose Float64 falls below
// pZero draws no value and is left as it is. The draws are those of the
// scalar loop
//
//	for i := range dst {
//		if pZero > 0 && r.Float64() < pZero {
//			continue
//		}
//		dst[i] += T(lo + r.Intn(n))
//	}
//
// It panics if n <= 0.
func AddIntn[T int32 | int64](r *RNG, dst []T, lo, n int, pZero float64) {
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
				s = addIntn(s, dst[i:i+1], lo, uint64(n))
			}
		}
		r.state = s
		return
	}
	r.state = addIntn(r.state, dst, lo, uint64(n))
}

// addIntn is AddIntn without coins from generator state s, returning the
// state after the draws. Each draw is Lemire's multiply-shift method, as in
// Intn. A draw whose low product word falls below bound has probability
// below bound/2^64, so lemireRetry handles it out of line.
func addIntn[T int32 | int64](s uint64, dst []T, lo int, bound uint64) uint64 {
	for i := range dst {
		s += gamma
		hi, low := bits.Mul64(Mix64(s), bound)
		if low < bound {
			hi, s = lemireRetry(hi, low, bound, s)
		}
		dst[i] += T(lo + int(hi))
	}
	return s
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

// Ranks sets every element of dst to (Rank(r.Float64()) + off) mod Len() in
// order, the draws of the scalar loop, one Float64 each. off rotates the
// rank-to-index mapping; it panics unless 0 <= off < Len().
func (z *ZipfCDF) Ranks(r *RNG, dst []int64, off int64) {
	n := int64(len(z.cdf))
	if off < 0 || off >= n {
		panic("sim: Ranks offset outside [0, Len())")
	}
	s := r.state
	for i := range dst {
		s += gamma
		// rank + off < 2n, so one subtraction is the modulo.
		v := int64(z.Rank(unit(Mix64(s)))) + off
		if v >= n {
			v -= n
		}
		dst[i] = v
	}
	r.state = s
}
