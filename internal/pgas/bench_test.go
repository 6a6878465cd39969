package pgas

import (
	"testing"

	"pgasemb/internal/sim"
)

func BenchmarkPutFloat32s(b *testing.B) {
	_, rt := testRuntime(2)
	src := make([]float32, 64)
	dst := make([]float32, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.PE(0).PutFloat32s(rt.PE(1), dst, src)
	}
	b.SetBytes(256)
}

func BenchmarkPutVectors(b *testing.B) {
	_, rt := testRuntime(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.PE(0).PutVectors(rt.PE(1), 1024, 256)
	}
	b.SetBytes(1024 * 256)
}

func BenchmarkAggregatorStore(b *testing.B) {
	_, rt := testRuntime(2)
	a := NewAggregator(rt.PE(0), 64<<10, sim.Second)
	src := make([]float32, 64)
	dst := make([]float32, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Store(rt.PE(1), dst, src)
	}
	b.SetBytes(256)
}
