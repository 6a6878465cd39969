package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
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

// TestNextBatchGolden pins the exact indices fixed-seed generators draw, so
// any change to the sampling streams (pooling order, index order, Zipf rank
// lookup, drift rotation) fails loudly instead of silently shifting every
// committed result.
func TestNextBatchGolden(t *testing.T) {
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
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
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
	for _, c := range cases {
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

// TestNextBatchIntoReuse draws consecutive batches into one reused batch and
// checks each against a twin generator's fresh NextBatch, byte for byte,
// across per-feature index totals that both grow and shrink.
func TestNextBatchIntoReuse(t *testing.T) {
	withNull := nullFreePerFeatureCfg()
	withNull.NullProbability = 0.3
	for _, cfg := range []Config{nullFreePerFeatureCfg(), withNull, zipfDriftPerFeatureCfg()} {
		cfg.BatchSize = 3 // few bags per feature, so totals swing batch to batch
		fresh, err := NewGenerator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		reused, _ := NewGenerator(cfg)
		var b sparse.Batch
		prev := make([]int, cfg.NumFeatures)
		var grew, shrank bool
		for i := 0; i < 40; i++ {
			want := fresh.NextBatch()
			reused.NextBatchInto(&b)
			if b.Size != want.Size || len(b.Features) != len(want.Features) {
				t.Fatalf("seed %d batch %d: shape %d x %d, want %d x %d",
					cfg.Seed, i, b.Size, len(b.Features), want.Size, len(want.Features))
			}
			for f := range want.Features {
				got, w := &b.Features[f], &want.Features[f]
				if got.FeatureID != w.FeatureID || !slices.Equal(got.Offsets, w.Offsets) ||
					!slices.Equal(got.Indices, w.Indices) {
					t.Fatalf("seed %d batch %d feature %d: reused draw differs from NextBatch", cfg.Seed, i, f)
				}
				n := len(got.Indices)
				if i > 0 {
					grew = grew || n > prev[f]
					shrank = shrank || n < prev[f]
				}
				prev[f] = n
			}
		}
		if !grew || !shrank {
			t.Fatalf("seed %d: index totals never both grew (%v) and shrank (%v)", cfg.Seed, grew, shrank)
		}
	}
}
