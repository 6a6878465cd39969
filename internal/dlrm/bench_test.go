package dlrm

import (
	"runtime"
	"testing"

	"pgasemb/internal/retrieval"
	"pgasemb/internal/sim"
	"pgasemb/internal/tensor"
)

func BenchmarkModelForward(b *testing.B) {
	m, err := NewModel(DefaultModelConfig(26, 64), 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := sim.NewRNG(2)
	dense := tensor.New(64, 13).RandomUniform(rng, 0, 1)
	emb := tensor.New(64, 26, 64).RandomUniform(rng, -1, 1)
	m.Forward(dense, emb) // sizes the model's reused buffers before the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(dense, emb)
	}
}

// BenchmarkNewModel builds the shape-only model infer-weak4 runs: the
// default DLRM layers over retrieval.WeakScalingConfig(4)'s 256 features.
func BenchmarkNewModel(b *testing.B) {
	b.Run("shape=infer-weak4", func(b *testing.B) {
		weak := retrieval.WeakScalingConfig(4)
		cfg := DefaultModelConfig(weak.TotalTables, weak.Dim)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := NewModel(cfg, weak.Seed); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPipelineInferenceTestScale builds and runs a whole inference
// pipeline per op, after one untimed run. It runs on one P: the runtime's
// per-P goroutine caches then refill the same way every op, so allocs/op
// does not drift with where the simulated processes ran.
func BenchmarkPipelineInferenceTestScale(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run := func() {
		pl, err := NewPipeline(retrieval.TestScaleConfig(2), retrieval.DefaultHardware(), &retrieval.PGASFused{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := pl.Run(); err != nil {
			b.Fatal(err)
		}
	}
	run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
