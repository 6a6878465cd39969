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

// BenchmarkNextSummaryInto draws infer-weak4's pooling structure (the
// workload of retrieval.WeakScalingConfig(4)) into one reused summary — the
// timing path's per-batch draw. A draw before the timer sizes the summary.
func BenchmarkNextSummaryInto(b *testing.B) {
	b.Run("shape=infer-weak4", func(b *testing.B) {
		g, err := NewGenerator(PaperWeakScaling(256, 2024))
		if err != nil {
			b.Fatal(err)
		}
		var s Summary
		g.NextSummaryInto(&s)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.NextSummaryInto(&s)
		}
	})
}

// BenchmarkNextBatchInto draws infer-cluster16's batches (the workload of
// retrieval.MultiNodeConfig(4, 4)) into one reused batch — the draw cached,
// placement and functional runs still take. The batch's slices grow by
// append's policy over its first draws, so it is drawn until a draw
// allocates nothing before the timer starts.
func BenchmarkNextBatchInto(b *testing.B) {
	b.Run("shape=infer-cluster16", func(b *testing.B) {
		g, err := NewGenerator(Config{
			NumFeatures:  256,
			BatchSize:    8192,
			MinPooling:   1,
			MaxPooling:   8,
			IndexSpace:   4096,
			Distribution: Zipf,
			ZipfExponent: 1.2,
			NumDense:     13,
			Seed:         2024,
		})
		if err != nil {
			b.Fatal(err)
		}
		var batch sparse.Batch
		draw := func() { g.NextBatchInto(&batch) }
		for testing.AllocsPerRun(1, draw) != 0 {
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			draw()
		}
	})
}
