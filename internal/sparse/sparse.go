// Package sparse represents DLRM sparse inputs: for each sparse feature, a
// jagged batch of index bags (PyTorch's KeyedJaggedTensor / the
// offsets+indices pair of EmbeddingBagCollection and of the paper's
// Listing 1). A bag's length is its pooling factor; an empty bag is the
// NULL input of the paper's Figure 3.
package sparse

import "fmt"

// FeatureBag holds one sparse feature's inputs for a whole batch in CSR
// form: Offsets has batchSize+1 entries; sample i's bag is
// Indices[Offsets[i]:Offsets[i+1]].
type FeatureBag struct {
	// FeatureID is the global sparse-feature (embedding table) index.
	FeatureID int
	// Offsets delimit per-sample bags; len = batch size + 1, non-decreasing,
	// Offsets[0] == 0.
	Offsets []int32
	// Indices are raw (pre-hash) categorical values.
	Indices []int64
}

// BatchSize returns the number of samples in the bag.
func (fb *FeatureBag) BatchSize() int { return len(fb.Offsets) - 1 }

// Bag returns sample i's indices (a view into Indices).
func (fb *FeatureBag) Bag(i int) []int64 {
	return fb.Indices[fb.Offsets[i]:fb.Offsets[i+1]]
}

// PoolingFactor returns the bag size of sample i.
func (fb *FeatureBag) PoolingFactor(i int) int {
	return int(fb.Offsets[i+1] - fb.Offsets[i])
}

// TotalIndices returns the number of indices across all samples.
func (fb *FeatureBag) TotalIndices() int { return len(fb.Indices) }

// Validate checks CSR invariants.
func (fb *FeatureBag) Validate() error {
	if len(fb.Offsets) == 0 {
		return fmt.Errorf("sparse: feature %d has no offsets", fb.FeatureID)
	}
	if fb.Offsets[0] != 0 {
		return fmt.Errorf("sparse: feature %d offsets must start at 0, got %d", fb.FeatureID, fb.Offsets[0])
	}
	for i := 1; i < len(fb.Offsets); i++ {
		if fb.Offsets[i] < fb.Offsets[i-1] {
			return fmt.Errorf("sparse: feature %d offsets decrease at %d (%d < %d)",
				fb.FeatureID, i, fb.Offsets[i], fb.Offsets[i-1])
		}
	}
	if int(fb.Offsets[len(fb.Offsets)-1]) != len(fb.Indices) {
		return fmt.Errorf("sparse: feature %d final offset %d != %d indices",
			fb.FeatureID, fb.Offsets[len(fb.Offsets)-1], len(fb.Indices))
	}
	return nil
}

// Batch is the sparse half of one DLRM input batch: one FeatureBag per
// sparse feature present.
type Batch struct {
	Size     int
	Features []FeatureBag
}

// Validate checks every feature bag and the shared batch size.
func (b *Batch) Validate() error {
	for i := range b.Features {
		fb := &b.Features[i]
		if err := fb.Validate(); err != nil {
			return err
		}
		if fb.BatchSize() != b.Size {
			return fmt.Errorf("sparse: feature %d batch size %d != batch %d",
				fb.FeatureID, fb.BatchSize(), b.Size)
		}
	}
	return nil
}

// TotalIndices returns the index count summed over all features.
func (b *Batch) TotalIndices() int {
	var sum int
	for i := range b.Features {
		sum += b.Features[i].TotalIndices()
	}
	return sum
}

// FeatureByID returns the bag for the given global feature ID, or nil.
func (b *Batch) FeatureByID(id int) *FeatureBag {
	for i := range b.Features {
		if b.Features[i].FeatureID == id {
			return &b.Features[i]
		}
	}
	return nil
}

// PartitionByFeature splits a global batch for model parallelism: GPU g
// receives the FULL batch of every feature assigned to it by plan[g]
// (the paper's Figure 4 input distribution). Features keep their global
// IDs. Every feature in the batch must be assigned exactly once.
func PartitionByFeature(b *Batch, plan [][]int) ([]*Batch, error) {
	assigned := make(map[int]bool, len(b.Features))
	out := make([]*Batch, len(plan))
	for g, ids := range plan {
		sub := &Batch{Size: b.Size, Features: make([]FeatureBag, 0, len(ids))}
		for _, id := range ids {
			fb := b.FeatureByID(id)
			if fb == nil {
				return nil, fmt.Errorf("sparse: plan assigns unknown feature %d to GPU %d", id, g)
			}
			if assigned[id] {
				return nil, fmt.Errorf("sparse: feature %d assigned twice", id)
			}
			assigned[id] = true
			sub.Features = append(sub.Features, *fb) // shares offset/index slices
		}
		out[g] = sub
	}
	if len(assigned) != len(b.Features) {
		return nil, fmt.Errorf("sparse: plan covers %d of %d features", len(assigned), len(b.Features))
	}
	return out, nil
}

// MinibatchRange returns the sample interval [lo, hi) that belongs to rank's
// data-parallel minibatch when a batch of size n is split across p ranks.
// Samples are split contiguously; remainders go to the lowest ranks, so
// every rank's share differs by at most one.
func MinibatchRange(n, p, rank int) (lo, hi int) {
	if p <= 0 || rank < 0 || rank >= p {
		panic(fmt.Sprintf("sparse: bad minibatch split n=%d p=%d rank=%d", n, p, rank))
	}
	base := n / p
	rem := n % p
	lo = rank*base + min(rank, rem)
	size := base
	if rank < rem {
		size++
	}
	return lo, lo + size
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
