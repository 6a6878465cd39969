package tensor

import (
	"fmt"
	"math"

	"pgasemb/internal/sim"
)

// MatMul returns a @ b for rank-2 tensors of shapes (m,k) and (k,n).
func MatMul(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMul needs rank-2 operands, got %v @ %v", a.shape, b.shape))
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dims differ: %v @ %v", a.shape, b.shape))
	}
	ac := a.Contiguous().Data()
	bc := b.Contiguous().Data()
	out := New(m, n)
	oc := out.data
	// ikj loop order: streams b row-wise, good cache behaviour without blocking.
	for i := 0; i < m; i++ {
		arow := ac[i*k : (i+1)*k]
		orow := oc[i*n : (i+1)*n]
		for kk := 0; kk < k; kk++ {
			av := arow[kk]
			if av == 0 {
				continue
			}
			brow := bc[kk*n : (kk+1)*n]
			for j := range brow {
				orow[j] += float32(av * brow[j])
			}
		}
	}
	return out
}

// AddBias adds a length-n bias vector to every row of an (m,n) tensor, in
// place, and returns the receiver for chaining.
func (t *Tensor) AddBias(bias *Tensor) *Tensor {
	if t.Rank() != 2 || bias.Rank() != 1 || bias.shape[0] != t.shape[1] {
		panic(fmt.Sprintf("tensor: AddBias %v += %v", t.shape, bias.shape))
	}
	d := t.Data()
	bv := bias.Contiguous().Data()
	n := t.shape[1]
	for i := 0; i < t.shape[0]; i++ {
		row := d[i*n : (i+1)*n]
		for j := range row {
			row[j] += bv[j]
		}
	}
	return t
}

// Add returns a + b element-wise for equally shaped tensors.
func Add(a, b *Tensor) *Tensor {
	if !sameShape(a.shape, b.shape) {
		panic(fmt.Sprintf("tensor: Add shape mismatch %v vs %v", a.shape, b.shape))
	}
	out := a.Clone()
	od := out.Data()
	bd := b.Contiguous().Data()
	for i := range od {
		od[i] += bd[i]
	}
	return out
}

// AccumulateFrom adds src into t element-wise, in place.
func (t *Tensor) AccumulateFrom(src *Tensor) {
	if !sameShape(t.shape, src.shape) {
		panic(fmt.Sprintf("tensor: AccumulateFrom shape mismatch %v vs %v", t.shape, src.shape))
	}
	d := t.Data()
	s := src.Contiguous().Data()
	for i := range d {
		d[i] += s[i]
	}
}

// Scale multiplies every element by v, in place, returning the receiver.
func (t *Tensor) Scale(v float32) *Tensor {
	d := t.Data()
	for i := range d {
		d[i] *= v
	}
	return t
}

// ReLU applies max(0, x) in place and returns the receiver.
func (t *Tensor) ReLU() *Tensor {
	d := t.Data()
	for i := range d {
		if d[i] < 0 {
			d[i] = 0
		}
	}
	return t
}

// Sigmoid applies the logistic function in place and returns the receiver.
func (t *Tensor) Sigmoid() *Tensor {
	d := t.Data()
	for i := range d {
		d[i] = float32(1 / (1 + math.Exp(-float64(d[i]))))
	}
	return t
}

// ConcatCols concatenates rank-2 tensors with equal row counts along the
// column dimension.
func ConcatCols(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: ConcatCols of nothing")
	}
	rows := ts[0].shape[0]
	cols := 0
	for _, t := range ts {
		if t.Rank() != 2 || t.shape[0] != rows {
			panic(fmt.Sprintf("tensor: ConcatCols row mismatch (%v)", t.shape))
		}
		cols += t.shape[1]
	}
	out := New(rows, cols)
	at := 0
	for _, t := range ts {
		tc := t.Contiguous().Data()
		w := t.shape[1]
		for r := 0; r < rows; r++ {
			copy(out.data[r*cols+at:r*cols+at+w], tc[r*w:(r+1)*w])
		}
		at += w
	}
	return out
}

// DotInteraction implements the DLRM pairwise-dot feature interaction: given
// a batch of F feature vectors of dimension d per sample — a (B, F, d)
// tensor — it returns a (B, F*(F-1)/2) tensor of the upper-triangle pairwise
// dot products, the "dot" fusion of the interaction layer in Figure 1 of the
// paper.
func DotInteraction(features *Tensor) *Tensor {
	if features.Rank() != 3 {
		panic(fmt.Sprintf("tensor: DotInteraction needs (B,F,d), got %v", features.shape))
	}
	b, f, d := features.shape[0], features.shape[1], features.shape[2]
	pairs := f * (f - 1) / 2
	out := New(b, pairs)
	fc := features.Contiguous().Data()
	for s := 0; s < b; s++ {
		base := s * f * d
		k := 0
		for i := 0; i < f; i++ {
			vi := fc[base+i*d : base+(i+1)*d]
			for j := i + 1; j < f; j++ {
				vj := fc[base+j*d : base+(j+1)*d]
				var dot float32
				for x := range vi {
					dot += float32(vi[x] * vj[x])
				}
				out.data[s*pairs+k] = dot
				k++
			}
		}
	}
	return out
}

// RandomUniform fills t in place with uniform values in [lo, hi) drawn from
// rng, and returns the receiver.
func (t *Tensor) RandomUniform(rng *sim.RNG, lo, hi float32) *Tensor {
	d := t.Data()
	span := hi - lo
	for i := range d {
		d[i] = lo + float32(span*float32(rng.Float64()))
	}
	return t
}

// RandomNormal fills t in place with N(0, stddev²) values and returns the
// receiver. Used for Xavier-style MLP weight init.
func (t *Tensor) RandomNormal(rng *sim.RNG, stddev float32) *Tensor {
	d := t.Data()
	for i := range d {
		d[i] = stddev * float32(rng.NormFloat64())
	}
	return t
}

// Sum returns the sum of all elements (float64 accumulator for stability).
func (t *Tensor) Sum() float64 {
	d := t.Contiguous().Data()
	var s float64
	for _, v := range d {
		s += float64(v)
	}
	return s
}
