// Package embedding implements DLRM embedding tables and their retrieval
// operations: the hash → lookup → pool pipeline of the paper's Figure 3,
// grouped into collections (PyTorch's EmbeddingBagCollection), plus the
// sharding planners that place tables on GPUs for model parallelism.
package embedding

import (
	"fmt"
	"math"

	"pgasemb/internal/sim"
	"pgasemb/internal/tensor"
)

// HashIndex maps a raw categorical value into [0, rows) — the hash function
// H of the paper's §II-A that bounds table memory at the cost of
// collisions. The splitmix64 finaliser gives good avalanche so collisions are
// uniform. A power-of-two row count keeps the hash's low bits, which is the
// same value as the modulo without a 64-bit divide.
func HashIndex(raw int64, rows int) int {
	if rows <= 0 {
		panic(fmt.Sprintf("embedding: hash into %d rows", rows))
	}
	z := hashMix(raw)
	if rows&(rows-1) == 0 {
		return int(z & uint64(rows-1))
	}
	return int(z % uint64(rows))
}

// hashMix is one splitmix64 step from state raw: add its increment, then
// finalise.
func hashMix(raw int64) uint64 { return sim.Mix64(uint64(raw) + 0x9e3779b97f4a7c15) }

// HashRows sets dst[i] to HashIndex(raws[i], rows) for every raw, with the
// power-of-two test made once for the slice: the bulk form the route-plan
// compiler and the placement statistics hash references with. dst must hold
// len(raws) rows; rows must fit an int32.
func HashRows(dst []int32, raws []int64, rows int) {
	if rows <= 0 || rows > math.MaxInt32 {
		panic(fmt.Sprintf("embedding: hash into %d rows", rows))
	}
	dst = dst[:len(raws)]
	if rows&(rows-1) == 0 {
		mask := uint64(rows - 1)
		for i, raw := range raws {
			dst[i] = int32(hashMix(raw) & mask)
		}
		return
	}
	m := uint64(rows)
	for i, raw := range raws {
		dst[i] = int32(hashMix(raw) % m)
	}
}

// Table is one embedding table: Rows learned vectors of dimension Dim.
type Table struct {
	Rows, Dim int
	Weights   *tensor.Tensor // (Rows, Dim)
}

// NewTable allocates a table initialised uniformly in
// [-1/sqrt(Dim), 1/sqrt(Dim)), the DLRM benchmark's initialisation.
func NewTable(rows, dim int, rng *sim.RNG) *Table {
	if rows <= 0 || dim <= 0 {
		panic(fmt.Sprintf("embedding: invalid table %dx%d", rows, dim))
	}
	scale := float32(1 / math.Sqrt(float64(dim)))
	return &Table{
		Rows:    rows,
		Dim:     dim,
		Weights: tensor.New(rows, dim).RandomUniform(rng, -scale, scale),
	}
}

// Bytes returns the table's device-memory footprint.
func (t *Table) Bytes() int64 { return int64(t.Rows) * int64(t.Dim) * 4 }

// LookupPooled hashes every raw index in bag, gathers the rows and sums them
// into out (length Dim) — the paper's pooling operation. An empty bag yields
// zeros — the NULL case of the paper's Figure 3.
func (t *Table) LookupPooled(bag []int64, out []float32) {
	if len(out) != t.Dim {
		panic(fmt.Sprintf("embedding: output length %d != dim %d", len(out), t.Dim))
	}
	for i := range out {
		out[i] = 0
	}
	w := t.Weights.Data()
	for _, raw := range bag {
		row := HashIndex(raw, t.Rows)
		vec := w[row*t.Dim : (row+1)*t.Dim]
		for i, v := range vec {
			out[i] += v
		}
	}
}

// Collection is a set of same-dimension tables for a set of global feature
// IDs — one GPU's shard under table-wise model parallelism.
type Collection struct {
	FeatureIDs []int
	Tables     []*Table
	Dim        int
}

// NewCollection builds a collection with one fresh table of rows rows per
// feature ID.
func NewCollection(featureIDs []int, rows, dim int, rng *sim.RNG) *Collection {
	c := &Collection{
		FeatureIDs: append([]int(nil), featureIDs...),
		Tables:     make([]*Table, len(featureIDs)),
		Dim:        dim,
	}
	for i := range featureIDs {
		c.Tables[i] = NewTable(rows, dim, rng)
	}
	return c
}

// Bytes returns the collection's total table footprint.
func (c *Collection) Bytes() int64 {
	var sum int64
	for _, t := range c.Tables {
		sum += t.Bytes()
	}
	return sum
}

// TableWisePlan assigns totalTables tables to gpus in contiguous blocks —
// the paper's "simple table sharding scheme (partitioning by tables)".
// Remainder tables go to the lowest GPUs, so shard sizes differ by at most
// one.
func TableWisePlan(totalTables, gpus int) [][]int {
	if totalTables < 0 || gpus <= 0 {
		panic(fmt.Sprintf("embedding: bad plan request (%d tables, %d gpus)", totalTables, gpus))
	}
	plan := make([][]int, gpus)
	base := totalTables / gpus
	rem := totalTables % gpus
	next := 0
	for g := 0; g < gpus; g++ {
		n := base
		if g < rem {
			n++
		}
		ids := make([]int, 0, n)
		for i := 0; i < n; i++ {
			ids = append(ids, next)
			next++
		}
		plan[g] = ids
	}
	return plan
}
