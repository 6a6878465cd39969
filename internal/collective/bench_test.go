package collective

import (
	"testing"

	"pgasemb/internal/sim"
)

func benchCollective(b *testing.B, n int, fn func(c *Comm, p *sim.Proc, rank int)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		env, c := testComm(n)
		runRanks(env, n, func(p *sim.Proc, rank int) { fn(c, p, rank) })
	}
}

func BenchmarkAllToAllSizes4Ranks(b *testing.B) {
	benchCollective(b, 4, func(c *Comm, p *sim.Proc, rank int) {
		sizes := []float64{0, 1 << 20, 1 << 20, 1 << 20}
		sizes[rank], sizes[0] = 0, 1<<20
		if rank == 0 {
			sizes[0] = 0
		}
		c.AllToAllSingleSizes(p, rank, sizes, sizes)
	})
}
