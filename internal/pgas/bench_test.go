package pgas

import "testing"

func BenchmarkPutVectors(b *testing.B) {
	_, rt := testRuntime(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.PE(0).PutVectors(rt.PE(1), 1024, 256)
	}
	b.SetBytes(1024 * 256)
}
