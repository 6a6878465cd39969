// Package tensor implements the dense float32 tensors used for the
// functional (bit-exact) side of the simulation: embedding rows, pooled
// outputs, MLP activations. The simulator separates *what* is computed
// (executed for real, here) from *how long* it takes (the cost models in
// internal/gpu and internal/nvlink), so correctness of both retrieval
// backends can be verified against a serial reference while timing is
// simulated.
//
// Tensors are row-major with explicit strides, which makes zero-copy row
// views and batch slicing possible — the same layout tricks the CUDA backend
// in the paper relies on (PackedTensorAccessor).
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Tensor is a dense float32 tensor. The zero value is an empty scalar-less
// tensor; construct with New, Zeros, or FromSlice.
type Tensor struct {
	data    []float32
	shape   []int
	strides []int
	offset  int
}

// New returns a zero-filled tensor of the given shape. A nil/empty shape
// yields a scalar (one element).
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	return &Tensor{
		data:    make([]float32, n),
		shape:   append([]int(nil), shape...),
		strides: contiguousStrides(shape),
	}
}

// FromSlice wraps data (without copying) in a tensor of the given shape. The
// data length must match the shape volume exactly.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (volume %d)", len(data), shape, n))
	}
	return &Tensor{
		data:    data,
		shape:   append([]int(nil), shape...),
		strides: contiguousStrides(shape),
	}
}

// Full returns a tensor of the given shape with every element set to v.
func Full(v float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

func contiguousStrides(shape []int) []int {
	strides := make([]int, len(shape))
	s := 1
	for i := len(shape) - 1; i >= 0; i-- {
		strides[i] = s
		s *= shape[i]
	}
	return strides
}

// Shape returns the tensor's dimensions. The returned slice must not be
// mutated.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// NumElems returns the total number of elements.
func (t *Tensor) NumElems() int {
	n := 1
	for _, d := range t.shape {
		n *= d
	}
	return n
}

// Bytes returns the storage footprint of the logical elements (4 bytes each).
func (t *Tensor) Bytes() int64 { return int64(t.NumElems()) * 4 }

// IsContiguous reports whether elements are laid out row-major with no gaps,
// which permits direct access to the backing slice via Data.
func (t *Tensor) IsContiguous() bool {
	s := 1
	for i := len(t.shape) - 1; i >= 0; i-- {
		if t.shape[i] != 1 && t.strides[i] != s {
			return false
		}
		s *= t.shape[i]
	}
	return true
}

// Data returns the contiguous backing slice for this tensor's elements. It
// panics for non-contiguous views; callers that may hold a view should use
// Contiguous() first.
func (t *Tensor) Data() []float32 {
	if !t.IsContiguous() {
		panic("tensor: Data on non-contiguous view")
	}
	return t.data[t.offset : t.offset+t.NumElems()]
}

// Contiguous returns t itself if contiguous, or a compact copy otherwise.
func (t *Tensor) Contiguous() *Tensor {
	if t.IsContiguous() {
		return t
	}
	out := New(t.shape...)
	copyInto(out.data, t)
	return out
}

// copyInto walks src in row-major logical order and writes each element into
// dst. Generic over rank; rarely hot (views are copied only at API edges).
func copyInto(dst []float32, src *Tensor) {
	n := src.NumElems()
	idx := make([]int, len(src.shape))
	for i := 0; i < n; i++ {
		off := src.offset
		for d, v := range idx {
			off += v * src.strides[d]
		}
		dst[i] = src.data[off]
		for d := len(idx) - 1; d >= 0; d-- {
			idx[d]++
			if idx[d] < src.shape[d] {
				break
			}
			idx[d] = 0
		}
	}
}

// At returns the element at the given indices.
func (t *Tensor) At(indices ...int) float32 {
	return t.data[t.index(indices)]
}

// Set stores v at the given indices.
func (t *Tensor) Set(v float32, indices ...int) {
	t.data[t.index(indices)] = v
}

func (t *Tensor) index(indices []int) int {
	if len(indices) != len(t.shape) {
		panic(fmt.Sprintf("tensor: %d indices for rank-%d tensor", len(indices), len(t.shape)))
	}
	off := t.offset
	for d, i := range indices {
		if i < 0 || i >= t.shape[d] {
			panic(fmt.Sprintf("tensor: index %d out of range for dim %d (size %d)", i, d, t.shape[d]))
		}
		off += i * t.strides[d]
	}
	return off
}

// Row returns a zero-copy view of row i of a rank-2 tensor.
func (t *Tensor) Row(i int) *Tensor {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: Row on rank-%d tensor", len(t.shape)))
	}
	if i < 0 || i >= t.shape[0] {
		panic(fmt.Sprintf("tensor: row %d out of range (rows=%d)", i, t.shape[0]))
	}
	return &Tensor{
		data:    t.data,
		shape:   []int{t.shape[1]},
		strides: []int{t.strides[1]},
		offset:  t.offset + i*t.strides[0],
	}
}

// Narrow returns a zero-copy view restricting dimension dim to
// [start, start+length).
func (t *Tensor) Narrow(dim, start, length int) *Tensor {
	if dim < 0 || dim >= len(t.shape) {
		panic(fmt.Sprintf("tensor: Narrow dim %d out of range for rank %d", dim, len(t.shape)))
	}
	if start < 0 || length < 0 || start+length > t.shape[dim] {
		panic(fmt.Sprintf("tensor: Narrow [%d,%d) out of range for dim size %d", start, start+length, t.shape[dim]))
	}
	shape := append([]int(nil), t.shape...)
	shape[dim] = length
	return &Tensor{
		data:    t.data,
		shape:   shape,
		strides: append([]int(nil), t.strides...),
		offset:  t.offset + start*t.strides[dim],
	}
}

// Reshape returns a view with a new shape of equal volume. It panics for
// non-contiguous tensors (copy with Contiguous first).
func (t *Tensor) Reshape(shape ...int) *Tensor {
	if !t.IsContiguous() {
		panic("tensor: Reshape of non-contiguous view")
	}
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != t.NumElems() {
		panic(fmt.Sprintf("tensor: Reshape %v (volume %d) incompatible with %v (volume %d)", shape, n, t.shape, t.NumElems()))
	}
	return &Tensor{
		data:    t.data,
		shape:   append([]int(nil), shape...),
		strides: contiguousStrides(shape),
		offset:  t.offset,
	}
}

// Clone returns a deep, contiguous copy.
func (t *Tensor) Clone() *Tensor {
	out := New(t.shape...)
	c := t.Contiguous()
	copy(out.data, c.data[c.offset:c.offset+c.NumElems()])
	return out
}

// CopyFrom copies src's elements into t. Shapes must match exactly.
func (t *Tensor) CopyFrom(src *Tensor) {
	if !sameShape(t.shape, src.shape) {
		panic(fmt.Sprintf("tensor: CopyFrom shape mismatch %v vs %v", t.shape, src.shape))
	}
	d := t.Data()
	s := src.Contiguous()
	copy(d, s.data[s.offset:s.offset+s.NumElems()])
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	d := t.Data()
	for i := range d {
		d[i] = v
	}
}

func sameShape(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Equal reports exact element-wise equality of equally-shaped tensors.
func Equal(a, b *Tensor) bool {
	if !sameShape(a.shape, b.shape) {
		return false
	}
	ad := a.Contiguous()
	bd := b.Contiguous()
	av := ad.data[ad.offset : ad.offset+ad.NumElems()]
	bv := bd.data[bd.offset : bd.offset+bd.NumElems()]
	for i := range av {
		if av[i] != bv[i] {
			return false
		}
	}
	return true
}

// AllClose reports element-wise closeness within absolute tolerance atol.
func AllClose(a, b *Tensor, atol float64) bool {
	if !sameShape(a.shape, b.shape) {
		return false
	}
	ad := a.Contiguous()
	bd := b.Contiguous()
	av := ad.data[ad.offset : ad.offset+ad.NumElems()]
	bv := bd.data[bd.offset : bd.offset+bd.NumElems()]
	for i := range av {
		if math.Abs(float64(av[i])-float64(bv[i])) > atol {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest absolute element-wise difference.
func MaxAbsDiff(a, b *Tensor) float64 {
	if !sameShape(a.shape, b.shape) {
		panic(fmt.Sprintf("tensor: MaxAbsDiff shape mismatch %v vs %v", a.shape, b.shape))
	}
	av := a.Contiguous().Data()
	bv := b.Contiguous().Data()
	var worst float64
	for i := range av {
		d := math.Abs(float64(av[i]) - float64(bv[i]))
		if d > worst {
			worst = d
		}
	}
	return worst
}

// String renders small tensors fully and large ones by shape.
func (t *Tensor) String() string {
	if t.NumElems() > 64 {
		return fmt.Sprintf("Tensor%v", t.shape)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v ", t.shape)
	c := t.Contiguous()
	fmt.Fprintf(&b, "%v", c.data[c.offset:c.offset+c.NumElems()])
	return b.String()
}
