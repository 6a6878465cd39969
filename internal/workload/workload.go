// Package workload generates the synthetic DLRM inputs of the paper's
// evaluation: sparse feature bags with uniform-random indices and uniform
// pooling factors (plus a Zipf option for skew experiments), and dense
// feature vectors.
//
// Generation uses two decoupled random streams — one for pooling factors,
// one for index values — so that a timing-only experiment can draw exactly
// the pooling sequence a functional run would see without materialising the
// (very large) index arrays. This is what lets the paper-scale experiments
// (batch 16384 × 64+ tables × pooling up to 128) run as pure timing
// simulations while small-scale tests verify the data plane bit-exactly on
// the same code path.
package workload

import (
	"fmt"
	"math"
	"slices"

	"pgasemb/internal/sim"
	"pgasemb/internal/sparse"
	"pgasemb/internal/tensor"
)

// IndexDist selects the sparse index distribution.
type IndexDist int

const (
	// Uniform draws indices uniformly from the index space (the paper's
	// setting: "generated synthetically with a uniform random distribution").
	Uniform IndexDist = iota
	// Zipf draws rank-skewed indices (hot items), the common production
	// skew RecShard-style sharders exploit.
	Zipf
)

// Config describes a synthetic workload.
type Config struct {
	// NumFeatures is the number of sparse features (= embedding tables).
	NumFeatures int
	// BatchSize is the number of samples per batch.
	BatchSize int
	// MinPooling and MaxPooling bound the per-bag pooling factor, drawn
	// uniformly inclusive. The paper uses [1, 128] (weak scaling) and
	// [1, 32] (strong scaling).
	MinPooling, MaxPooling int
	// PerFeatureMaxPooling optionally overrides MaxPooling per feature
	// (len NumFeatures). Real DLRM features are heterogeneous — a few hot
	// features carry most of the lookup load — and this is how the skewed
	// workloads model it.
	PerFeatureMaxPooling []int
	// NullProbability is the chance a (sample, feature) bag is empty — the
	// NULL inputs of the paper's Figure 3. Applied before pooling draw.
	NullProbability float64
	// IndexSpace is the raw categorical cardinality indices are drawn from.
	IndexSpace int64
	// Distribution selects Uniform or Zipf indices.
	Distribution IndexDist
	// ZipfExponent is the skew parameter when Distribution == Zipf.
	ZipfExponent float64
	// HotSetDriftEvery rotates the Zipf rank→index mapping every this many
	// batches: the hot items drift to a different region of the index space
	// while the skew SHAPE stays fixed — the shifting-traffic regime an
	// adaptive placement layer must chase. The rotation step derives from
	// Seed, so drift is fully deterministic, and the pooling stream is
	// untouched (NextSummary and NextBatch stay trajectory-identical). 0
	// disables drift. Zipf distribution only.
	HotSetDriftEvery int
	// NumDense is the dense-feature width for DLRM inputs.
	NumDense int
	// Seed makes the workload reproducible.
	Seed uint64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.NumFeatures <= 0:
		return fmt.Errorf("workload: NumFeatures must be positive")
	case c.BatchSize <= 0:
		return fmt.Errorf("workload: BatchSize must be positive")
	case c.MinPooling < 0:
		return fmt.Errorf("workload: MinPooling must be non-negative")
	case c.MaxPooling < c.MinPooling:
		return fmt.Errorf("workload: MaxPooling < MinPooling")
	case c.PerFeatureMaxPooling != nil && len(c.PerFeatureMaxPooling) != c.NumFeatures:
		return fmt.Errorf("workload: PerFeatureMaxPooling has %d entries for %d features",
			len(c.PerFeatureMaxPooling), c.NumFeatures)
	case c.NullProbability < 0 || c.NullProbability > 1:
		return fmt.Errorf("workload: NullProbability outside [0,1]")
	case c.IndexSpace <= 0:
		return fmt.Errorf("workload: IndexSpace must be positive")
	case c.Distribution == Zipf && c.ZipfExponent <= 0:
		return fmt.Errorf("workload: Zipf needs positive exponent")
	case c.Distribution == Zipf && c.IndexSpace > 1<<24:
		return fmt.Errorf("workload: Zipf index space too large for exact sampling (max 2^24)")
	case c.NumDense < 0:
		return fmt.Errorf("workload: NumDense must be non-negative")
	case c.HotSetDriftEvery < 0:
		return fmt.Errorf("workload: negative HotSetDriftEvery %d", c.HotSetDriftEvery)
	case c.HotSetDriftEvery > 0 && c.Distribution != Zipf:
		return fmt.Errorf("workload: HotSetDriftEvery rotates the Zipf rank mapping; it needs Distribution == Zipf " +
			"(a uniform stream has no hot set to drift)")
	}
	for f := 0; f < c.NumFeatures; f++ {
		m := c.featureMaxPooling(f)
		if m < c.MinPooling {
			return fmt.Errorf("workload: feature %d max pooling %d below MinPooling %d", f, m, c.MinPooling)
		}
		// A feature's bag offsets are int32 (sparse.FeatureBag).
		if m > math.MaxInt32/c.BatchSize {
			return fmt.Errorf("workload: feature %d can draw %d x %d indices per batch, past the int32 offset range",
				f, c.BatchSize, m)
		}
	}
	return nil
}

// featureMaxPooling returns feature f's pooling upper bound.
func (c Config) featureMaxPooling(f int) int {
	if c.PerFeatureMaxPooling != nil {
		return c.PerFeatureMaxPooling[f]
	}
	return c.MaxPooling
}

// ExpectedPoolingLoad returns the expected per-sample lookup count of each
// feature — the load measure sharding planners balance.
func (c Config) ExpectedPoolingLoad() []float64 {
	loads := make([]float64, c.NumFeatures)
	for f := range loads {
		loads[f] = (1 - c.NullProbability) * float64(c.MinPooling+c.featureMaxPooling(f)) / 2
	}
	return loads
}

// ExpectedUnique returns the expected number of distinct buckets hit by n
// independent index draws from this workload's distribution: E[distinct] =
// Σ_b (1 − (1 − q_b)^n), where q_b sums the raw-index probabilities mapped
// into bucket b. With bucket == nil each raw index is its own bucket; the
// retrieval layer passes its row-hash so the expectation accounts for hash
// collisions exactly. The dedup tests pin measured batch dedup ratios
// against this closed form.
func (c Config) ExpectedUnique(n int64, buckets int, bucket func(int64) int) float64 {
	if n <= 0 {
		return 0
	}
	if bucket == nil {
		buckets = int(c.IndexSpace)
		bucket = func(raw int64) int { return int(raw) }
	}
	q := make([]float64, buckets)
	if c.Distribution == Zipf {
		for raw, p := range sim.NewZipfCDF(c.ZipfExponent, int(c.IndexSpace)).Probabilities() {
			q[bucket(int64(raw))] += p
		}
	} else {
		p := 1 / float64(c.IndexSpace)
		for raw := int64(0); raw < c.IndexSpace; raw++ {
			q[bucket(raw)] += p
		}
	}
	var expected float64
	for _, qb := range q {
		if qb <= 0 {
			continue
		}
		// 1-(1-q)^n via expm1/log1p for tiny q at large n.
		expected += -math.Expm1(float64(n) * math.Log1p(-qb))
	}
	return expected
}

// PaperWeakScaling returns the weak-scaling workload of §IV-A for the given
// number of local tables per GPU times GPU count: batch 16384, pooling
// uniform in [1, 128], uniform indices over 1M-row tables.
func PaperWeakScaling(numTables int, seed uint64) Config {
	return Config{
		NumFeatures:  numTables,
		BatchSize:    16384,
		MinPooling:   1,
		MaxPooling:   128,
		IndexSpace:   1_000_000,
		Distribution: Uniform,
		NumDense:     13, // Criteo-style dense width used by the DLRM benchmark
		Seed:         seed,
	}
}

// PaperStrongScaling returns the strong-scaling workload of §IV-B: 96
// tables total, batch 16384, pooling uniform in [1, 32].
func PaperStrongScaling(seed uint64) Config {
	cfg := PaperWeakScaling(96, seed)
	cfg.MaxPooling = 32
	return cfg
}

// CriteoShaped returns a workload shaped like the Criteo click-logs dataset
// the DLRM benchmark ships with: 26 sparse features, 13 dense features,
// single-valued bags (pooling factor 1) — the latency-dominated regime
// where per-batch overheads, not bandwidth, decide the EMB layer's cost.
func CriteoShaped(seed uint64) Config {
	return Config{
		NumFeatures:  26,
		BatchSize:    16384,
		MinPooling:   1,
		MaxPooling:   1,
		IndexSpace:   1_000_000,
		Distribution: Uniform,
		NumDense:     13,
		Seed:         seed,
	}
}

// Generator produces batches (or their timing summaries) deterministically.
type Generator struct {
	cfg      Config
	rngPool  *sim.RNG     // pooling factors and null draws
	rngIdx   *sim.RNG     // index values
	rngDense *sim.RNG     // dense features
	zipf     *sim.ZipfCDF // Zipf rank table (nil for uniform); draws consume rngIdx

	// Hot-set drift state: batches counts draws of either kind (NextBatch
	// and NextSummary advance it identically, keeping the two modes
	// trajectory-identical), and driftOffset rotates the Zipf rank→index
	// mapping by driftStep every HotSetDriftEvery batches.
	batches     int
	driftOffset int64
	driftStep   int64
}

// ZipfCDF builds the immutable rank table a Zipf configuration samples
// from (nil for uniform or invalid ones). It depends only on ZipfExponent
// and IndexSpace, so generators of every seed can share one; see
// NewGeneratorWithZipf.
func (c Config) ZipfCDF() *sim.ZipfCDF {
	if c.Distribution != Zipf || c.Validate() != nil {
		return nil
	}
	return sim.NewZipfCDF(c.ZipfExponent, int(c.IndexSpace))
}

// NewGenerator validates cfg and returns a generator.
func NewGenerator(cfg Config) (*Generator, error) {
	return NewGeneratorWithZipf(cfg, nil)
}

// NewGeneratorWithZipf is NewGenerator drawing Zipf ranks from a prebuilt,
// shared table (cfg.ZipfCDF()), so callers that start many runs of one
// configuration pay the O(IndexSpace) construction once. A nil table builds
// a private one.
func NewGeneratorWithZipf(cfg Config, zipf *sim.ZipfCDF) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{
		cfg:      cfg,
		rngPool:  sim.NewRNG(cfg.Seed ^ 0xA5A5_0001),
		rngIdx:   sim.NewRNG(cfg.Seed ^ 0xA5A5_0002),
		rngDense: sim.NewRNG(cfg.Seed ^ 0xA5A5_0003),
	}
	if cfg.Distribution == Zipf {
		if zipf == nil {
			zipf = cfg.ZipfCDF()
		} else if zipf.Len() != int(cfg.IndexSpace) || zipf.Exponent() != cfg.ZipfExponent {
			return nil, fmt.Errorf("workload: Zipf table (n=%d, s=%v) does not match the configuration "+
				"(IndexSpace %d, ZipfExponent %v)", zipf.Len(), zipf.Exponent(), cfg.IndexSpace, cfg.ZipfExponent)
		}
		g.zipf = zipf
	} else if zipf != nil {
		return nil, fmt.Errorf("workload: a Zipf table was supplied for a uniform configuration")
	}
	if cfg.HotSetDriftEvery > 0 && cfg.IndexSpace > 1 {
		// A seed-derived rotation step in [1, IndexSpace): golden-ratio
		// mixing spreads consecutive seeds across the index space, and the
		// floor at 1 guarantees every drift epoch actually moves the hot set.
		g.driftStep = int64((cfg.Seed*0x9E3779B97F4A7C15 + 0xD1F7) % uint64(cfg.IndexSpace-1))
		g.driftStep++
	}
	return g, nil
}

// advanceBatch steps the drift epoch counter. NextBatch and NextSummary both
// call it exactly once per batch, so the rotation schedule is identical
// whether or not indices are materialised.
func (g *Generator) advanceBatch() {
	if g.cfg.HotSetDriftEvery > 0 && g.batches > 0 && g.batches%g.cfg.HotSetDriftEvery == 0 {
		g.driftOffset = (g.driftOffset + g.driftStep) % g.cfg.IndexSpace
	}
	g.batches++
}

// Config returns the generator's configuration.
func (g *Generator) Config() Config { return g.cfg }

// drawPoolings fills dst with feature f's per-bag pooling factors in
// sample order (0 for a NULL bag). Each bag takes a NULL draw (when NULL
// bags are on) and then its pooling draw, both from rngPool.
func (g *Generator) drawPoolings(f int, dst []int32) {
	lo := g.cfg.MinPooling
	span := g.cfg.featureMaxPooling(f) - lo + 1
	rng := g.rngPool
	if null := g.cfg.NullProbability; null > 0 {
		for i := range dst {
			if rng.Float64() < null {
				dst[i] = 0
				continue
			}
			dst[i] = int32(lo + rng.Intn(span))
		}
		return
	}
	for i := range dst {
		dst[i] = int32(lo + rng.Intn(span))
	}
}

// drawIndices fills dst with consecutive raw indices from rngIdx.
func (g *Generator) drawIndices(dst []int64) {
	rng, space, zipf, off := g.rngIdx, g.cfg.IndexSpace, g.zipf, g.driftOffset
	switch {
	case zipf != nil && off != 0:
		// Rotate the rank→index mapping: the same rank (same draw stream)
		// lands on a shifted raw index, so the hot set moves while the skew
		// shape is preserved exactly.
		for i := range dst {
			dst[i] = (int64(zipf.Rank(rng.Float64())) + off) % space
		}
	case zipf != nil:
		for i := range dst {
			dst[i] = int64(zipf.Rank(rng.Float64()))
		}
	case space <= 1<<31:
		n := int(space)
		for i := range dst {
			dst[i] = int64(rng.Intn(n))
		}
	default:
		for i := range dst {
			dst[i] = int64(rng.Uint64() % uint64(space))
		}
	}
}

// NextBatch materialises a full sparse batch (pooling + indices) into a
// fresh batch.
func (g *Generator) NextBatch() *sparse.Batch {
	b := &sparse.Batch{}
	g.NextBatchInto(b)
	return b
}

// NextBatchInto draws the next batch into b, reusing the capacity of its
// feature, offset and index slices; b's previous contents are overwritten.
// Each feature's pooling factors are drawn first, so its index slice is
// sized once at its exact length; pooling and indices come from separate
// streams, so the draws match interleaving them bag by bag.
func (g *Generator) NextBatchInto(b *sparse.Batch) {
	g.advanceBatch()
	B := g.cfg.BatchSize
	b.Size = B
	b.Features = resize(b.Features, g.cfg.NumFeatures)
	for f := range b.Features {
		fb := &b.Features[f]
		fb.FeatureID = f
		fb.Offsets = resize(fb.Offsets, B+1)
		offsets := fb.Offsets
		offsets[0] = 0
		g.drawPoolings(f, offsets[1:])
		for s := 1; s <= B; s++ {
			offsets[s] += offsets[s-1]
		}
		fb.Indices = resize(fb.Indices, int(offsets[B]))
		g.drawIndices(fb.Indices)
	}
}

// resize returns s with length n, reallocating only when its capacity is
// short. A nil s gets exactly n; a reused s regrows by append's policy, so
// the headroom absorbs later draws a little larger than this one.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return slices.Grow(s[:0], n)[:n]
	}
	return s[:n]
}

// Summary carries only the pooling structure of a batch — everything the
// timing model needs, none of the index payload.
type Summary struct {
	BatchSize   int
	NumFeatures int
	// Pooling is indexed [feature*BatchSize + sample].
	Pooling []int32
}

// NextSummary draws the same pooling sequence NextBatch would (identical
// rngPool trajectory) without touching the index stream.
func (g *Generator) NextSummary() *Summary {
	g.advanceBatch()
	s := &Summary{
		BatchSize:   g.cfg.BatchSize,
		NumFeatures: g.cfg.NumFeatures,
		Pooling:     make([]int32, g.cfg.NumFeatures*g.cfg.BatchSize),
	}
	B := g.cfg.BatchSize
	for f := 0; f < g.cfg.NumFeatures; f++ {
		g.drawPoolings(f, s.Pooling[f*B:(f+1)*B])
	}
	return s
}

// PoolingFactor returns the bag size for (feature, sample).
func (s *Summary) PoolingFactor(feature, sample int) int {
	return int(s.Pooling[feature*s.BatchSize+sample])
}

// TotalIndices returns the pooling sum over all bags.
func (s *Summary) TotalIndices() int64 {
	var sum int64
	for _, p := range s.Pooling {
		sum += int64(p)
	}
	return sum
}

// FeatureIndices returns the pooling sum for one feature.
func (s *Summary) FeatureIndices(feature int) int64 {
	var sum int64
	for smp := 0; smp < s.BatchSize; smp++ {
		sum += int64(s.Pooling[feature*s.BatchSize+smp])
	}
	return sum
}

// NextDense returns a (BatchSize, NumDense) tensor of uniform [0,1) dense
// features.
func (g *Generator) NextDense() *tensor.Tensor {
	return tensor.New(g.cfg.BatchSize, g.cfg.NumDense).RandomUniform(g.rngDense, 0, 1)
}
