package embedding

import (
	"testing"

	"pgasemb/internal/sim"
)

func BenchmarkHashIndex(b *testing.B) {
	var sink int
	for i := 0; i < b.N; i++ {
		sink ^= HashIndex(int64(i), 1_000_000)
	}
	_ = sink
}

func benchLookup(b *testing.B, pooling int) {
	b.Helper()
	rng := sim.NewRNG(1)
	tbl := NewTable(1<<16, 64, rng)
	bag := make([]int64, pooling)
	for i := range bag {
		bag[i] = int64(rng.Intn(1 << 30))
	}
	out := make([]float32, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.LookupPooled(bag, out)
	}
	b.SetBytes(int64(pooling) * 64 * 4)
}

func BenchmarkLookupPooledSum32(b *testing.B)  { benchLookup(b, 32) }
func BenchmarkLookupPooledSum128(b *testing.B) { benchLookup(b, 128) }
