package workload

import (
	"math"
	"reflect"
	"testing"
)

func smallCfg() Config {
	return Config{
		NumFeatures: 4,
		BatchSize:   8,
		MinPooling:  1,
		MaxPooling:  5,
		IndexSpace:  100,
		NumDense:    3,
		Seed:        42,
	}
}

func TestValidateRejects(t *testing.T) {
	muts := []struct {
		name string
		mut  func(*Config)
	}{
		{"features", func(c *Config) { c.NumFeatures = 0 }},
		{"batch", func(c *Config) { c.BatchSize = 0 }},
		{"minpool", func(c *Config) { c.MinPooling = -1 }},
		{"maxpool", func(c *Config) { c.MaxPooling = 0; c.MinPooling = 1 }},
		{"null", func(c *Config) { c.NullProbability = 1.5 }},
		{"space", func(c *Config) { c.IndexSpace = 0 }},
		{"zipf exp", func(c *Config) { c.Distribution = Zipf; c.ZipfExponent = 0 }},
		{"zipf space", func(c *Config) { c.Distribution = Zipf; c.ZipfExponent = 1; c.IndexSpace = 1 << 30 }},
		{"dense", func(c *Config) { c.NumDense = -1 }},
		// 8 x 268435456 = 2^31 indices overflow a feature's int32 offsets.
		{"offsets", func(c *Config) { c.MaxPooling = 1 << 28 }},
		{"offsets per feature", func(c *Config) { c.PerFeatureMaxPooling = []int{5, 5, 1 << 28, 5} }},
	}
	for _, m := range muts {
		c := smallCfg()
		m.mut(&c)
		if c.Validate() == nil {
			t.Errorf("%s not rejected", m.name)
		}
	}
	if _, err := NewGenerator(Config{}); err == nil {
		t.Error("NewGenerator accepted zero config")
	}
}

func TestPaperConfigs(t *testing.T) {
	w := PaperWeakScaling(64, 1)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if w.BatchSize != 16384 || w.MaxPooling != 128 || w.IndexSpace != 1_000_000 {
		t.Fatalf("weak config wrong: %+v", w)
	}
	s := PaperStrongScaling(1)
	if s.NumFeatures != 96 || s.MaxPooling != 32 {
		t.Fatalf("strong config wrong: %+v", s)
	}
}

func TestNextBatchValid(t *testing.T) {
	g, err := NewGenerator(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	b := g.NextBatch()
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if b.Size != 8 || len(b.Features) != 4 {
		t.Fatalf("batch geometry: size=%d features=%d", b.Size, len(b.Features))
	}
	for f := range b.Features {
		if b.Features[f].FeatureID != f {
			t.Fatalf("feature %d has ID %d", f, b.Features[f].FeatureID)
		}
		for s := 0; s < 8; s++ {
			p := b.Features[f].PoolingFactor(s)
			if p < 1 || p > 5 {
				t.Fatalf("pooling %d outside [1,5]", p)
			}
			for _, idx := range b.Features[f].Bag(s) {
				if idx < 0 || idx >= 100 {
					t.Fatalf("index %d outside space", idx)
				}
			}
		}
	}
}

func TestDeterministicAcrossGenerators(t *testing.T) {
	g1, _ := NewGenerator(smallCfg())
	g2, _ := NewGenerator(smallCfg())
	b1, b2 := g1.NextBatch(), g2.NextBatch()
	for f := range b1.Features {
		if len(b1.Features[f].Indices) != len(b2.Features[f].Indices) {
			t.Fatal("same seed produced different batches")
		}
		for i := range b1.Features[f].Indices {
			if b1.Features[f].Indices[i] != b2.Features[f].Indices[i] {
				t.Fatal("same seed produced different indices")
			}
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	c2 := smallCfg()
	c2.Seed = 43
	g1, _ := NewGenerator(smallCfg())
	g2, _ := NewGenerator(c2)
	b1, b2 := g1.NextBatch(), g2.NextBatch()
	same := true
	for f := range b1.Features {
		if len(b1.Features[f].Indices) != len(b2.Features[f].Indices) {
			same = false
			break
		}
	}
	if same && b1.TotalIndices() == b2.TotalIndices() {
		// Extremely unlikely to match on both structure and totals.
		t.Log("warning: identical totals across seeds (possible but unlikely)")
	}
}

func TestSummaryMatchesBatchPooling(t *testing.T) {
	// The critical invariant for timing/functional consistency: a summary
	// draws exactly the pooling sequence the full batch would.
	gBatch, _ := NewGenerator(smallCfg())
	gSum, _ := NewGenerator(smallCfg())
	for round := 0; round < 3; round++ {
		b := gBatch.NextBatch()
		s := gSum.NextSummary()
		for f := 0; f < 4; f++ {
			for smp := 0; smp < 8; smp++ {
				if b.Features[f].PoolingFactor(smp) != s.PoolingFactor(f, smp) {
					t.Fatalf("round %d: pooling diverged at (f=%d, s=%d)", round, f, smp)
				}
			}
		}
		if int64(b.TotalIndices()) != s.TotalIndices() {
			t.Fatalf("round %d: totals diverged", round)
		}
	}
}

func TestSummaryFeatureIndices(t *testing.T) {
	g, _ := NewGenerator(smallCfg())
	s := g.NextSummary()
	var manual int64
	for f := 0; f < 4; f++ {
		manual += s.FeatureIndices(f)
	}
	if manual != s.TotalIndices() {
		t.Fatalf("per-feature sums %d != total %d", manual, s.TotalIndices())
	}
}

func TestNullProbability(t *testing.T) {
	c := smallCfg()
	c.BatchSize = 2000
	c.NullProbability = 0.5
	g, _ := NewGenerator(c)
	b := g.NextBatch()
	empty := 0
	totalBags := 0
	for f := range b.Features {
		for s := 0; s < c.BatchSize; s++ {
			totalBags++
			if b.Features[f].PoolingFactor(s) == 0 {
				empty++
			}
		}
	}
	frac := float64(empty) / float64(totalBags)
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("null fraction = %v, want ~0.5", frac)
	}
}

func TestZipfIndicesSkewed(t *testing.T) {
	c := smallCfg()
	c.BatchSize = 4000
	c.Distribution = Zipf
	c.ZipfExponent = 1.1
	g, err := NewGenerator(c)
	if err != nil {
		t.Fatal(err)
	}
	b := g.NextBatch()
	counts := make(map[int64]int)
	for f := range b.Features {
		for _, idx := range b.Features[f].Indices {
			counts[idx]++
		}
	}
	if counts[0] <= counts[50] {
		t.Fatalf("zipf not skewed: c0=%d c50=%d", counts[0], counts[50])
	}
}

func TestNextDense(t *testing.T) {
	g, _ := NewGenerator(smallCfg())
	d := g.NextDense()
	if d.Dim(0) != 8 || d.Dim(1) != 3 {
		t.Fatalf("dense shape %v", d.Shape())
	}
	for i := 0; i < 8; i++ {
		for j := 0; j < 3; j++ {
			v := d.At(i, j)
			if v < 0 || v >= 1 {
				t.Fatalf("dense value %v outside [0,1)", v)
			}
		}
	}
}

func TestPoolingBoundsExercised(t *testing.T) {
	c := smallCfg()
	c.BatchSize = 2000
	g, _ := NewGenerator(c)
	s := g.NextSummary()
	sawMin, sawMax := false, false
	for _, p := range s.Pooling {
		if int(p) == c.MinPooling {
			sawMin = true
		}
		if int(p) == c.MaxPooling {
			sawMax = true
		}
	}
	if !sawMin || !sawMax {
		t.Fatalf("pooling bounds never drawn: min=%v max=%v", sawMin, sawMax)
	}
}

func TestLargeIndexSpace(t *testing.T) {
	c := smallCfg()
	c.IndexSpace = 1 << 40
	g, _ := NewGenerator(c)
	b := g.NextBatch()
	for f := range b.Features {
		for _, idx := range b.Features[f].Indices {
			if idx < 0 || idx >= 1<<40 {
				t.Fatalf("index %d outside 2^40 space", idx)
			}
		}
	}
}

func TestPerFeatureMaxPooling(t *testing.T) {
	c := smallCfg()
	c.NumFeatures = 2
	c.BatchSize = 500
	c.PerFeatureMaxPooling = []int{2, 50}
	g, err := NewGenerator(c)
	if err != nil {
		t.Fatal(err)
	}
	b := g.NextBatch()
	max0, max1 := 0, 0
	for s := 0; s < c.BatchSize; s++ {
		if p := b.Features[0].PoolingFactor(s); p > max0 {
			max0 = p
		}
		if p := b.Features[1].PoolingFactor(s); p > max1 {
			max1 = p
		}
	}
	if max0 > 2 {
		t.Fatalf("cold feature drew pooling %d > 2", max0)
	}
	if max1 <= 2 || max1 > 50 {
		t.Fatalf("hot feature max pooling %d outside (2, 50]", max1)
	}
}

func TestPerFeaturePoolingValidation(t *testing.T) {
	c := smallCfg()
	c.PerFeatureMaxPooling = []int{1} // wrong length
	if c.Validate() == nil {
		t.Fatal("wrong-length vector accepted")
	}
	c = smallCfg()
	c.MinPooling = 3
	c.PerFeatureMaxPooling = []int{5, 5, 2, 5} // entry below min
	if c.Validate() == nil {
		t.Fatal("below-min entry accepted")
	}
}

func TestExpectedPoolingLoad(t *testing.T) {
	c := smallCfg() // min 1, max 5, 4 features
	loads := c.ExpectedPoolingLoad()
	if len(loads) != 4 {
		t.Fatalf("len = %d", len(loads))
	}
	for _, l := range loads {
		if l != 3 { // (1+5)/2
			t.Fatalf("uniform load = %v, want 3", l)
		}
	}
	c.PerFeatureMaxPooling = []int{5, 5, 99, 5}
	c.NullProbability = 0.5
	loads = c.ExpectedPoolingLoad()
	if loads[2] != 0.5*(1+99)/2 {
		t.Fatalf("hot feature load = %v", loads[2])
	}
	if loads[0] != 0.5*3 {
		t.Fatalf("null-adjusted load = %v", loads[0])
	}
}

func TestSummaryMatchesBatchWithSkew(t *testing.T) {
	c := smallCfg()
	c.PerFeatureMaxPooling = []int{1, 3, 9, 27}
	gb, _ := NewGenerator(c)
	gs, _ := NewGenerator(c)
	b := gb.NextBatch()
	s := gs.NextSummary()
	for f := 0; f < c.NumFeatures; f++ {
		for smp := 0; smp < c.BatchSize; smp++ {
			if b.Features[f].PoolingFactor(smp) != s.PoolingFactor(f, smp) {
				t.Fatal("summary diverged from batch under per-feature pooling")
			}
		}
	}
}

// zipfAnalyticMass returns the exact probability mass of the top-k ranks
// under Zipf(s) over n items: H_{k,s} / H_{n,s}.
func zipfAnalyticMass(k, n int, s float64) float64 {
	var hk, hn float64
	for r := 1; r <= n; r++ {
		p := math.Pow(float64(r), -s)
		hn += p
		if r <= k {
			hk += p
		}
	}
	return hk / hn
}

// The skew knob must mean what it says: the empirical mass landing on the
// hottest keys has to match the analytic Zipf CDF at every configured
// exponent, within sampling tolerance.
func TestZipfHotKeyMassMatchesAnalyticCDF(t *testing.T) {
	for _, s := range []float64{1.05, 1.2, 1.5} {
		c := smallCfg()
		c.NumFeatures = 1
		c.BatchSize = 1024
		c.MinPooling = 4
		c.MaxPooling = 4
		c.IndexSpace = 1024
		c.Distribution = Zipf
		c.ZipfExponent = s
		g, err := NewGenerator(c)
		if err != nil {
			t.Fatal(err)
		}
		const hotKeys = 16
		var total, hot int
		for b := 0; b < 25; b++ { // 25 batches × 1024 samples × 4 = 102400 draws
			batch := g.NextBatch()
			for _, idx := range batch.Features[0].Indices {
				total++
				if idx < hotKeys {
					hot++
				}
			}
		}
		got := float64(hot) / float64(total)
		want := zipfAnalyticMass(hotKeys, int(c.IndexSpace), s)
		if math.Abs(got-want) > 0.03 {
			t.Fatalf("s=%g: top-%d mass %.4f, analytic %.4f (tolerance 0.03, %d draws)",
				s, hotKeys, got, want, total)
		}
	}
}

// Two same-seed generators must be byte-identical across every stream they
// expose — batches, summaries, and dense inputs — for several batches, not
// just the first.
func TestSameSeedGeneratorsByteIdentical(t *testing.T) {
	mk := func() Config {
		c := smallCfg()
		c.BatchSize = 64
		c.IndexSpace = 512
		c.Distribution = Zipf
		c.ZipfExponent = 1.2
		return c
	}
	g1, err := NewGenerator(mk())
	if err != nil {
		t.Fatal(err)
	}
	g2, err := NewGenerator(mk())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if !reflect.DeepEqual(g1.NextBatch(), g2.NextBatch()) {
			t.Fatalf("batch %d: same-seed generators produced different batches", i)
		}
		if !reflect.DeepEqual(g1.NextSummary(), g2.NextSummary()) {
			t.Fatalf("batch %d: same-seed generators produced different summaries", i)
		}
		if !reflect.DeepEqual(g1.NextDense(), g2.NextDense()) {
			t.Fatalf("batch %d: same-seed generators produced different dense inputs", i)
		}
	}
}

func driftCfg() Config {
	return Config{
		NumFeatures:      3,
		BatchSize:        16,
		MinPooling:       1,
		MaxPooling:       8,
		IndexSpace:       1000,
		Distribution:     Zipf,
		ZipfExponent:     1.2,
		HotSetDriftEvery: 2,
		Seed:             2024,
	}
}

func TestGeneratorSharedZipfTable(t *testing.T) {
	cfg := driftCfg()
	shared := cfg.ZipfCDF()
	for seed := uint64(1); seed <= 3; seed++ {
		cfg.Seed = seed
		own, err := NewGenerator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		borrowed, err := NewGeneratorWithZipf(cfg, shared)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if !reflect.DeepEqual(own.NextBatch(), borrowed.NextBatch()) {
				t.Fatalf("seed %d batch %d: shared-table generator diverged from a private-table one", seed, i)
			}
		}
	}
	bad := driftCfg()
	bad.ZipfExponent = 1.1
	if _, err := NewGeneratorWithZipf(bad, shared); err == nil {
		t.Error("Zipf table of another exponent accepted")
	}
	bad = driftCfg()
	bad.IndexSpace = 999
	if _, err := NewGeneratorWithZipf(bad, shared); err == nil {
		t.Error("Zipf table of another index space accepted")
	}
	if _, err := NewGeneratorWithZipf(smallCfg(), shared); err == nil {
		t.Error("Zipf table accepted for a uniform configuration")
	}
}

func TestHotSetDriftValidation(t *testing.T) {
	c := driftCfg()
	c.HotSetDriftEvery = -1
	if c.Validate() == nil {
		t.Error("negative HotSetDriftEvery not rejected")
	}
	c = driftCfg()
	c.Distribution = Uniform
	if c.Validate() == nil {
		t.Error("drift without Zipf not rejected")
	}
	if err := driftCfg().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestHotSetDriftSameSeedDeterministic(t *testing.T) {
	a, err := NewGenerator(driftCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewGenerator(driftCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		ba, bb := a.NextBatch(), b.NextBatch()
		if !reflect.DeepEqual(ba, bb) {
			t.Fatalf("batch %d diverged across same-seed drifting generators", i)
		}
	}
}

func TestHotSetDriftMovesHotIndices(t *testing.T) {
	g, err := NewGenerator(driftCfg())
	if err != nil {
		t.Fatal(err)
	}
	top := func(counts map[int64]int) int64 {
		var best int64 = -1
		for idx, n := range counts {
			if best < 0 || n > counts[best] || (n == counts[best] && idx < best) {
				best = idx
			}
		}
		return best
	}
	countEpoch := func() map[int64]int {
		counts := map[int64]int{}
		for i := 0; i < 2; i++ { // one drift epoch = HotSetDriftEvery batches
			b := g.NextBatch()
			for _, f := range b.Features {
				for _, idx := range f.Indices {
					counts[idx]++
				}
			}
		}
		return counts
	}
	first := top(countEpoch())
	second := top(countEpoch())
	if first == second {
		t.Fatalf("hot index did not move across a drift epoch (stayed %d)", first)
	}
}

func TestHotSetDriftPreservesPoolingStream(t *testing.T) {
	// Drift must only touch the index stream: pooling summaries (and so all
	// timing inputs) are byte-identical with drift on and off.
	on, err := NewGenerator(driftCfg())
	if err != nil {
		t.Fatal(err)
	}
	offCfg := driftCfg()
	offCfg.HotSetDriftEvery = 0
	off, err := NewGenerator(offCfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if !reflect.DeepEqual(on.NextSummary(), off.NextSummary()) {
			t.Fatalf("pooling stream diverged at batch %d with drift enabled", i)
		}
	}
}

func TestHotSetDriftSummaryBatchParity(t *testing.T) {
	// NextSummary must advance the drift epoch exactly like NextBatch: a
	// generator that summarised its first batches draws the same drifted
	// indices afterwards as one that materialised them.
	a, err := NewGenerator(driftCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewGenerator(driftCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		a.NextSummary()
		b.NextBatch()
	}
	// Index RNG positions differ (summaries draw no indices), but the drift
	// OFFSET must agree — compare it directly.
	if a.driftOffset != b.driftOffset {
		t.Fatalf("drift offset diverged: summary path %d, batch path %d", a.driftOffset, b.driftOffset)
	}
	if a.driftOffset == 0 {
		t.Fatalf("three batches at HotSetDriftEvery=2 must have drifted")
	}
}
