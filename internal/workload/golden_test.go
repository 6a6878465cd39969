package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
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
	}
	for _, c := range cases {
		if got := batchDigest(t, c.cfg, 5); got != c.want {
			t.Errorf("%s: NextBatch digest %s, want %s", c.name, got, c.want)
		}
	}
}
