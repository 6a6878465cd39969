package nvlink

import (
	"testing"

	"pgasemb/internal/sim"
)

func BenchmarkFabricPipeLookup(b *testing.B) {
	f := mustFabric(sim.NewEnv(), DefaultParams(), station(4))
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += f.PairBandwidth(i%4, (i+1)%4)
	}
	_ = sink
}

func BenchmarkWireBytes(b *testing.B) {
	f := mustFabric(sim.NewEnv(), DefaultParams(), station(2))
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += f.WireBytes(256)
	}
	_ = sink
}

func BenchmarkFabricOffer(b *testing.B) {
	f := mustFabric(sim.NewEnv(), DefaultParams(), station(2))
	p := f.Pipe(0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Offer(288)
	}
}
