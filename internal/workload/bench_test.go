package workload

import (
	"testing"

	"pgasemb/internal/sparse"
)

func BenchmarkNextSummaryPaperScale(b *testing.B) {
	// The per-batch cost of the timing-only path at the paper's weak-scaling
	// size (4 GPUs' worth of features).
	g, err := NewGenerator(PaperWeakScaling(256, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.NextSummary()
	}
}

func BenchmarkNextBatchSmall(b *testing.B) {
	g, err := NewGenerator(Config{
		NumFeatures: 8,
		BatchSize:   64,
		MinPooling:  1,
		MaxPooling:  16,
		IndexSpace:  1 << 20,
		Seed:        1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.NextBatch()
	}
}

func BenchmarkSummaryTotals(b *testing.B) {
	g, _ := NewGenerator(PaperWeakScaling(64, 1))
	s := g.NextSummary()
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		sink ^= s.TotalIndices()
	}
	_ = sink
}

// BenchmarkFeature draws infer-cluster16's batches (the workload of
// retrieval.MultiNodeConfig(4, 4)) the way a timing run's compile walk does:
// a pooling pass, then every feature into one reused bag in a plan order
// that is not the feature order (odd features first, then even ones). The
// bag's slices grow by append's policy over the first batches, so it is
// drawn until a batch allocates nothing before the timer starts.
func BenchmarkFeature(b *testing.B) {
	b.Run("shape=infer-cluster16", func(b *testing.B) {
		cfg := Config{
			NumFeatures:  256,
			BatchSize:    8192,
			MinPooling:   1,
			MaxPooling:   8,
			IndexSpace:   4096,
			Distribution: Zipf,
			ZipfExponent: 1.2,
			NumDense:     13,
			Seed:         2024,
		}
		g, err := NewGenerator(cfg)
		if err != nil {
			b.Fatal(err)
		}
		order := make([]int, 0, cfg.NumFeatures)
		for start := 1; start >= 0; start-- {
			for f := start; f < cfg.NumFeatures; f += 2 {
				order = append(order, f)
			}
		}
		sum := make([]int64, cfg.BatchSize)
		var fb sparse.FeatureBag
		draw := func() {
			g.NextPoolingSums(func(int) []int64 { return sum })
			for _, f := range order {
				g.Feature(f, &fb)
			}
		}
		for testing.AllocsPerRun(1, draw) != 0 {
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			draw()
		}
	})
}
