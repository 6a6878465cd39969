package dlrm

import (
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(dense, emb)
	}
}

func BenchmarkPipelineInferenceTestScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pl, err := NewPipeline(retrieval.TestScaleConfig(2), retrieval.DefaultHardware(), &retrieval.PGASFused{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := pl.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
