package sim

import (
	"fmt"
	"testing"
)

func BenchmarkEventScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEnv()
		for j := 0; j < 1000; j++ {
			e.After(Duration(j), func() {})
		}
		e.Run()
	}
	b.ReportMetric(1000, "events/iter")
}

func BenchmarkProcContextSwitch(b *testing.B) {
	e := NewEnv()
	e.Go("spinner", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Wait(1)
		}
	})
	b.ResetTimer()
	e.Run()
}

func BenchmarkPipeOffer(b *testing.B) {
	e := NewEnv()
	p := NewPipe(e, "bench", 50e9, 1e-6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Offer(288)
	}
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}

func BenchmarkRNGIntn(b *testing.B) {
	r := NewRNG(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink ^= r.Intn(1_000_000)
	}
	_ = sink
}

// BenchmarkZipfTableNext times one draw on a large table and on a small,
// steeply skewed one shaped like the 4096-row tables of a 16-GPU cluster
// workload.
func BenchmarkZipfTableNext(b *testing.B) {
	for _, c := range []struct {
		n int
		s float64
	}{{1 << 20, 1.1}, {4096, 1.2}} {
		b.Run(fmt.Sprintf("n=%d/s=%v", c.n, c.s), func(b *testing.B) {
			zt := NewZipfTable(NewRNG(1), c.s, c.n)
			b.ResetTimer()
			var sink int
			for i := 0; i < b.N; i++ {
				sink ^= zt.Next()
			}
			_ = sink
		})
	}
}

// BenchmarkZipfRanks times one bulk draw of 4096 ranks (ns/op over 4096 is
// ns per draw) on the 262,144-row tables of the serving workload at two
// exponents, and on a small steep table.
func BenchmarkZipfRanks(b *testing.B) {
	for _, c := range []struct {
		n int
		s float64
	}{{262_144, 1.05}, {262_144, 1.2}, {4096, 1.2}} {
		b.Run(fmt.Sprintf("n=%d/s=%v", c.n, c.s), func(b *testing.B) {
			z, r := NewZipfCDF(c.s, c.n), NewRNG(1)
			dst := make([]int64, 4096)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				z.Ranks(r, dst, 0)
			}
		})
	}
}
