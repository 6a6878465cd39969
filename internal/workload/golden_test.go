package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand/v2"
	"slices"
	"testing"

	"pgasemb/internal/sparse"
)

// batchDigest hashes the offsets and indices of n consecutive NextBatch
// draws from a fresh generator of cfg.
func batchDigest(t *testing.T, cfg Config, n int) string {
	t.Helper()
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for i := 0; i < n; i++ {
		b := g.NextBatch()
		for _, f := range b.Features {
			put(uint64(f.FeatureID))
			for _, o := range f.Offsets {
				put(uint64(o))
			}
			for _, idx := range f.Indices {
				put(uint64(idx))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// batchGoldenCase is one fixed-seed configuration and the digest of its
// first five NextBatch draws.
type batchGoldenCase struct {
	name string
	cfg  Config
	want string
}

// batchGoldenCases are TestNextBatchGolden's configurations: uniform and
// Zipf indices, drift, NULL bags, per-feature pooling bounds and a uniform
// space past 2^31.
func batchGoldenCases() []batchGoldenCase {
	zipf := Config{
		NumFeatures:          3,
		BatchSize:            64,
		MinPooling:           1,
		MaxPooling:           6,
		PerFeatureMaxPooling: []int{24, 6, 2},
		NullProbability:      0.1,
		IndexSpace:           5000,
		Distribution:         Zipf,
		ZipfExponent:         1.05,
		Seed:                 12,
	}
	return []batchGoldenCase{
		{"uniform", Config{
			NumFeatures:     3,
			BatchSize:       64,
			MinPooling:      0,
			MaxPooling:      16,
			NullProbability: 0.1,
			IndexSpace:      1 << 20,
			Seed:            11,
		}, "be0959cee70702ceb1e89a3cb995a70940851d980c9841a7feec6850699b62d5"},
		{"zipf", zipf, "40880971f45e638159388a4a2c992f7877a617a2a3055937a1e38e13349d0eb6"},
		{"zipf-drift", driftCfg(), "f3e0c6b7f54688629fc000571da45ff89d91ff3079a5216e82c6368c3aa04d49"},
		// NULL-free streams: the branch every paper-scale workload runs, where
		// no NULL draw precedes a bag's pooling draw.
		{"uniform-nonull", nullFreeCfg(), "b6f59afeee73e8161e69fc97bec5d2fde79b49cd3b7b2bf5a8682f89d50c0a22"},
		{"uniform-nonull-perfeature", nullFreePerFeatureCfg(), "d2343312b6471719f6304c4db180bcf63d721c6f630ace9709fb707dd4678b7e"},
		{"uniform-nonull-wide", nullFreeWideCfg(), "036ea9c3257a2b7bf24f059322ecfb8e842d7c77c5ebdcc020d1e2a80e44cb52"},
		{"zipf-drift-nonull-perfeature", zipfDriftPerFeatureCfg(), "dfa4e60b38cf02f1aecf36dac2e79f72a621f283c7af1f37bfba3e9678eb8d3c"},
	}
}

// TestNextBatchGolden pins the exact indices fixed-seed generators draw, so
// any change to the sampling streams (pooling order, index order, Zipf rank
// lookup, drift rotation) fails loudly instead of silently shifting every
// committed result.
func TestNextBatchGolden(t *testing.T) {
	for _, c := range batchGoldenCases() {
		if got := batchDigest(t, c.cfg, 5); got != c.want {
			t.Errorf("%s: NextBatch digest %s, want %s", c.name, got, c.want)
		}
	}
}

func nullFreeCfg() Config {
	return Config{
		NumFeatures: 4,
		BatchSize:   48,
		MinPooling:  1,
		MaxPooling:  20,
		IndexSpace:  1_000_000,
		Seed:        31,
	}
}

func nullFreePerFeatureCfg() Config {
	cfg := nullFreeCfg()
	cfg.MinPooling = 0
	cfg.PerFeatureMaxPooling = []int{40, 3, 0, 17}
	cfg.Seed = 32
	return cfg
}

// nullFreeWideCfg draws from an index space past 2^31, where uniform
// indices take the 64-bit modulo path instead of Intn.
func nullFreeWideCfg() Config {
	cfg := nullFreeCfg()
	cfg.IndexSpace = 1<<40 + 7
	cfg.Seed = 33
	return cfg
}

func zipfDriftPerFeatureCfg() Config {
	cfg := driftCfg()
	cfg.PerFeatureMaxPooling = []int{30, 1, 9}
	cfg.IndexSpace = 70_000
	cfg.ZipfExponent = 1.05
	cfg.Seed = 34
	return cfg
}

// summaryDigest hashes the pooling factors of n consecutive NextSummary
// draws from a fresh generator of cfg.
func summaryDigest(t *testing.T, cfg Config, n int) string {
	t.Helper()
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf [4]byte
	for i := 0; i < n; i++ {
		s := g.NextSummary()
		for _, p := range s.Pooling {
			binary.LittleEndian.PutUint32(buf[:], uint32(p))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestNextSummaryGolden pins the pooling stream of the timing-only path,
// with and without NULL bags and per-feature pooling bounds.
func TestNextSummaryGolden(t *testing.T) {
	withNull := nullFreePerFeatureCfg()
	withNull.NullProbability = 0.25
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"uniform-nonull", nullFreeCfg(), "437ef59095080e0b5fa4ea987b40a219eaa2307757662f487fcf2263187c8397"},
		{"uniform-nonull-perfeature", nullFreePerFeatureCfg(), "332d47d038e4f0d065bae554588c2720714675367e81abb659906b7c09b6e23a"},
		{"uniform-null-perfeature", withNull, "71c46a47bcc16c366fcb805f9276472bbb21e3eb13d113a7a254078db69b26e7"},
		{"zipf-drift-nonull-perfeature", zipfDriftPerFeatureCfg(), "3f91f47a1cf23ba4fd791c537d8fef41033940fad7dabbc103019ad411c37bef"},
	}
	for _, c := range cases {
		if got := summaryDigest(t, c.cfg, 5); got != c.want {
			t.Errorf("%s: NextSummary digest %s, want %s", c.name, got, c.want)
		}
	}
}

// TestNextPoolingSumsMatchesSummary pins the shard-sum draw: features
// mapped to two shards (even features to one, odd to the other) add into
// them exactly NextSummary's per-shard sums, on top of what the shards
// held, batch after batch, NULL bags, per-feature bounds, non-power-of-two
// spans and drift epochs included, and a warm draw allocates nothing.
func TestNextPoolingSumsMatchesSummary(t *testing.T) {
	withNull := nullFreePerFeatureCfg()
	withNull.NullProbability = 0.3
	for _, cfg := range []Config{nullFreePerFeatureCfg(), withNull, zipfDriftPerFeatureCfg()} {
		fresh, err := NewGenerator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		streamed, _ := NewGenerator(cfg)
		B := cfg.BatchSize
		shardOf := func(f int) int { return f % 2 }
		var got, want [2][]int64
		for sh := range got {
			// One spare element past BatchSize: the draw must not touch it.
			got[sh], want[sh] = make([]int64, B+1), make([]int64, B+1)
			for smp := range got[sh] {
				got[sh][smp] = int64(1000*sh + smp)
				want[sh][smp] = got[sh][smp]
			}
		}
		for i := 0; i < 12; i++ {
			s := fresh.NextSummary()
			for f := 0; f < s.NumFeatures; f++ {
				for smp := 0; smp < B; smp++ {
					want[shardOf(f)][smp] += int64(s.PoolingFactor(f, smp))
				}
			}
			next := 0
			streamed.NextPoolingSums(func(f int) []int64 {
				if f != next {
					t.Fatalf("seed %d batch %d: feature %d asked for, want %d", cfg.Seed, i, f, next)
				}
				next++
				return got[shardOf(f)]
			})
			if next != s.NumFeatures {
				t.Fatalf("seed %d batch %d: %d features drawn, want %d", cfg.Seed, i, next, s.NumFeatures)
			}
			for sh := range got {
				if !slices.Equal(got[sh], want[sh]) {
					t.Fatalf("seed %d batch %d: shard %d sums differ from NextSummary's", cfg.Seed, i, sh)
				}
			}
		}
		sum := func(f int) []int64 { return got[shardOf(f)] }
		if allocs := testing.AllocsPerRun(4, func() { streamed.NextPoolingSums(sum) }); allocs != 0 {
			t.Errorf("seed %d: warm NextPoolingSums allocates %v times per draw", cfg.Seed, allocs)
		}
	}
}

// checkFeatures opens batch i of seek with a pooling pass, draws its
// features in the given order and holds each to want's.
func checkFeatures(t *testing.T, name string, i int, seek *Generator, want *sparse.Batch, order []int, fb *sparse.FeatureBag) {
	t.Helper()
	B := seek.cfg.BatchSize
	sum := make([]int64, B)
	seek.NextPoolingSums(func(int) []int64 { return sum })
	var total int64
	for _, p := range sum {
		total += p
	}
	for _, f := range order {
		w := &want.Features[f]
		seek.Feature(f, fb)
		if fb.FeatureID != f || !slices.Equal(fb.Offsets, w.Offsets) || !slices.Equal(fb.Indices, w.Indices) {
			t.Fatalf("%s batch %d: feature %d drawn in order %v differs from NextBatch's", name, i, f, order)
		}
	}
	var wantTotal int
	for _, w := range want.Features {
		wantTotal += len(w.Indices)
	}
	if total != int64(wantTotal) {
		t.Fatalf("%s batch %d: the pooling pass summed %d indices, NextBatch drew %d", name, i, total, wantTotal)
	}
}

// TestFeatureMatchesNextBatch holds the seekable draw to NextBatch: on every
// TestNextBatchGolden configuration, a pooling pass followed by Feature for
// every feature in a seeded random order draws NextBatch's features, batch
// after batch (so every batch's index stream starts where the last one's
// ended, whatever order it was drawn in), and a warm pass plus Feature
// allocates nothing. A uniform space of 1,000,000 rows, not a power of two,
// is drawn in reverse feature order, so every feature but the last is first
// reached by skipping its draws. A batch whose features are not all drawn
// still moves the next batch's index stream past all of its draws.
func TestFeatureMatchesNextBatch(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	for _, c := range batchGoldenCases() {
		fresh, err := NewGenerator(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		seek, _ := NewGenerator(c.cfg)
		var fb sparse.FeatureBag
		for i := 0; i < 6; i++ {
			checkFeatures(t, c.name, i, seek, fresh.NextBatch(), rng.Perm(c.cfg.NumFeatures), &fb)
		}
		// A batch of which only the middle feature is drawn.
		mid := []int{c.cfg.NumFeatures / 2}
		checkFeatures(t, c.name, 6, seek, fresh.NextBatch(), mid, &fb)
		checkFeatures(t, c.name, 7, seek, fresh.NextBatch(), rng.Perm(c.cfg.NumFeatures), &fb)

		sum := make([]int64, c.cfg.BatchSize)
		draw := func() {
			seek.NextPoolingSums(func(int) []int64 { return sum })
			for f := c.cfg.NumFeatures - 1; f >= 0; f-- {
				seek.Feature(f, &fb)
			}
		}
		for range 3 {
			draw() // warm: the bag's slices reach every feature's size
		}
		if allocs := testing.AllocsPerRun(4, draw); allocs != 0 {
			t.Errorf("%s: a warm pooling pass plus Feature allocates %v times per batch", c.name, allocs)
		}
	}

	cfg := nullFreeCfg()
	cfg.NumFeatures = 5
	cfg.BatchSize = 300
	fresh, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seek, _ := NewGenerator(cfg)
	var fb sparse.FeatureBag
	for i := 0; i < 4; i++ {
		checkFeatures(t, "uniform-1M-reverse", i, seek, fresh.NextBatch(), []int{4, 3, 2, 1, 0}, &fb)
	}
}
