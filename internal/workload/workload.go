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
//
// Both streams are splitmix64, which is counter-based: draw k of a stream
// is a function of its start and k alone. So the streams can be sought per
// feature. A batch opens with a pooling pass over its features in feature
// order, which records where each feature's pooling and index draws start;
// Feature then draws any feature's bags, in any order, bit-identical to the
// same feature of NextBatch, and a caller never has to hold a whole batch.
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
	case !(c.NullProbability >= 0 && c.NullProbability <= 1): // NaN too
		return fmt.Errorf("workload: NullProbability %v outside [0,1]", c.NullProbability)
	case math.IsNaN(c.ZipfExponent):
		return fmt.Errorf("workload: ZipfExponent is NaN")
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

// Generator produces batches (or their timing summaries) deterministically.
//
// Each batch is opened by a pooling pass (NextPoolingSums, NextSummary or
// NextBatch) in feature order, which records where each feature's draws
// start; Feature then draws any feature of the open batch, in any order. A
// batch's index draws start where those of the last batch that drew any
// ended, so pooling-only batches leave the index stream alone.
type Generator struct {
	cfg      Config
	rngPool  sim.RNG      // pooling factors and null draws
	rngDense sim.RNG      // dense features
	zipf     *sim.ZipfCDF // Zipf rank table (nil for uniform); draws consume the index stream

	// The open batch's seek records. poolAt[f] is the pooling stream at
	// feature f's first draw and idxLen[f] the number of indices feature f
	// draws. idxAt[f] is the index stream at feature f's first index draw,
	// known for f <= frontier; idxAt[0] is where the batch's index draws
	// start. The frontier stays 0 until a feature of the batch is drawn.
	poolAt   []sim.RNG
	idxLen   []int
	idxAt    []sim.RNG
	frontier int

	// Hot-set drift state: batches counts opened batches of every kind, so
	// the rotation schedule is the same whether or not indices are drawn,
	// and driftOffset rotates the Zipf rank→index mapping by driftStep every
	// HotSetDriftEvery batches.
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
	F := cfg.NumFeatures
	rngs := make([]sim.RNG, 2*F+1) // poolAt and idxAt, in one allocation
	g := &Generator{
		cfg:    cfg,
		poolAt: rngs[:F:F],
		idxLen: make([]int, F),
		idxAt:  rngs[F:],
	}
	g.Reseed(cfg.Seed)
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
	return g, nil
}

// Reseed restarts the generator's streams from seed, in place: the next
// batch it draws is the first batch of a new generator with that seed.
func (g *Generator) Reseed(seed uint64) {
	g.cfg.Seed = seed
	g.rngPool = *sim.NewRNG(seed ^ 0xA5A5_0001)
	g.rngDense = *sim.NewRNG(seed ^ 0xA5A5_0003)
	g.idxAt[0] = *sim.NewRNG(seed ^ 0xA5A5_0002)
	g.frontier, g.batches, g.driftOffset, g.driftStep = 0, 0, 0, 0
	if g.cfg.HotSetDriftEvery > 0 && g.cfg.IndexSpace > 1 {
		// A seed-derived rotation step in [1, IndexSpace): golden-ratio
		// mixing spreads consecutive seeds across the index space, and the
		// floor at 1 guarantees every drift epoch actually moves the hot set.
		g.driftStep = int64((seed*0x9E3779B97F4A7C15 + 0xD1F7) % uint64(g.cfg.IndexSpace-1))
		g.driftStep++
	}
}

// Config returns the generator's configuration.
func (g *Generator) Config() Config { return g.cfg }

// addPoolings adds feature f's per-bag pooling factors, in sample order, to
// dst (a NULL bag adds 0), drawing from r, and returns their sum. Each bag
// takes a NULL draw (when NULL bags are on) and then its pooling draw.
func addPoolings[T int32 | int64](g *Generator, r *sim.RNG, f int, dst []T) int64 {
	lo := g.cfg.MinPooling
	return sim.AddIntn(r, dst, lo, g.cfg.featureMaxPooling(f)-lo+1, g.cfg.NullProbability)
}

// openBatch starts the next batch's pooling pass (see poolFeature).
func (g *Generator) openBatch() {
	if g.frontier > 0 { // the last batch drew indices
		g.idxAt[0] = g.indexStream(g.cfg.NumFeatures)
	}
	g.frontier = 0
	if g.cfg.HotSetDriftEvery > 0 && g.batches > 0 && g.batches%g.cfg.HotSetDriftEvery == 0 {
		g.driftOffset = (g.driftOffset + g.driftStep) % g.cfg.IndexSpace
	}
	g.batches++
}

// poolFeature is the pooling pass's step: it draws feature f's pooling
// factors, adding them in sample order to the first BatchSize elements of
// dst, and records where the feature's draws start.
func poolFeature[T int32 | int64](g *Generator, f int, dst []T) {
	g.poolAt[f] = g.rngPool
	g.idxLen[f] = int(addPoolings(g, &g.rngPool, f, dst[:g.cfg.BatchSize]))
}

// NextPoolingSums opens the next batch with its pooling pass: it draws the
// batch's pooling factors one feature at a time, in feature order, and adds
// feature f's factors, in sample order, to the first BatchSize elements of
// sum(f). No factor is stored: features that sum(f) maps to one slice are
// summed there as they are drawn. Feature then draws the batch's bags.
func (g *Generator) NextPoolingSums(sum func(f int) []int64) {
	g.openBatch()
	for f := range g.poolAt {
		poolFeature(g, f, sum(f))
	}
}

// Feature draws feature f of the batch the last pooling pass opened into
// fb, reusing the capacity of its slices: the offsets and indices of
// feature f of the batch NextBatch would draw, in any order, any number of
// times. The pooling factors are redrawn from the pass's record, and the
// indices start at the recorded index-stream state (see indexStream).
func (g *Generator) Feature(f int, fb *sparse.FeatureBag) {
	fb.Offsets = resize(fb.Offsets, g.cfg.BatchSize+1)
	clear(fb.Offsets)
	pool := g.poolAt[f]
	addPoolings(g, &pool, f, fb.Offsets[1:])
	g.drawBag(f, fb)
}

// drawBag finishes feature f's bag of the open batch, whose offsets hold
// the feature's pooling factors after a leading 0: it scans them into
// offsets and draws the indices.
func (g *Generator) drawBag(f int, fb *sparse.FeatureBag) {
	fb.FeatureID = f
	for s := 1; s < len(fb.Offsets); s++ {
		fb.Offsets[s] += fb.Offsets[s-1]
	}
	fb.Indices = resize(fb.Indices, g.idxLen[f])
	r := g.indexStream(f)
	switch space := g.cfg.IndexSpace; {
	case g.zipf != nil:
		// Drift rotates the rank→index mapping: the same rank (same draw
		// stream) lands on a shifted raw index, so the hot set moves while
		// the skew shape is preserved exactly.
		g.zipf.Ranks(&r, fb.Indices, g.driftOffset)
	case space <= 1<<31:
		clear(fb.Indices)
		sim.AddIntn(&r, fb.Indices, 0, int(space), 0)
	default:
		r.Mods(fb.Indices, space)
	}
	if f == g.frontier {
		g.idxAt[f+1] = r
		g.frontier++
	}
}

// indexStream returns the index stream at feature f's first index draw.
// Features up to the frontier have a recorded start; one past it is reached
// by skipping the draws of the features before it. Zipf, Mods and
// power-of-two uniform indices take one draw each, so the skip is
// arithmetic; any other uniform index takes one unless Lemire's method
// rejects it (probability below IndexSpace/2^64), so SkipIntn tests each
// skipped draw. A batch drawn in feature order never skips.
func (g *Generator) indexStream(f int) sim.RNG {
	for ; g.frontier < f; g.frontier++ {
		r := g.idxAt[g.frontier]
		n := 1 // a Zipf or Mods index takes one draw, as Intn(1) does
		if space := g.cfg.IndexSpace; g.zipf == nil && space <= 1<<31 {
			n = int(space)
		}
		sim.SkipIntn(&r, g.idxLen[g.frontier], n)
		g.idxAt[g.frontier+1] = r
	}
	return g.idxAt[f]
}

// NextBatch materialises the next full sparse batch (pooling + indices)
// into a fresh batch.
func (g *Generator) NextBatch() *sparse.Batch {
	b := &sparse.Batch{}
	g.batchInto(b)
	return b
}

// batchInto opens the next batch and draws it whole into b, in feature order.
func (g *Generator) batchInto(b *sparse.Batch) {
	B := g.cfg.BatchSize
	*b = sparse.Batch{Size: B, Features: make([]sparse.FeatureBag, g.cfg.NumFeatures)}
	g.openBatch()
	for f := range b.Features {
		fb := &b.Features[f]
		fb.Offsets = make([]int32, B+1)
		poolFeature(g, f, fb.Offsets[1:])
		g.drawBag(f, fb)
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

// NextSummary opens the next batch with its pooling pass and returns its
// pooling factors in a fresh summary: the pooling sequence NextBatch would
// draw, without touching the index stream.
func (g *Generator) NextSummary() *Summary {
	s := &Summary{}
	g.summaryInto(s)
	return s
}

// summaryInto opens the next batch with its pooling pass into s.
func (g *Generator) summaryInto(s *Summary) {
	B, F := g.cfg.BatchSize, g.cfg.NumFeatures
	*s = Summary{BatchSize: B, NumFeatures: F, Pooling: make([]int32, F*B)}
	g.openBatch()
	for f := range g.poolAt {
		poolFeature(g, f, s.Pooling[f*B:(f+1)*B])
	}
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
	return tensor.New(g.cfg.BatchSize, g.cfg.NumDense).RandomUniform(&g.rngDense, 0, 1)
}
