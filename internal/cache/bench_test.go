package cache

import (
	"fmt"
	"testing"

	"pgasemb/internal/sim"
)

// probeBag is the bag size of zipfKeys' stream: about the mean pooling
// factor of a U[1, 64] serving workload.
const probeBag = 32

// zipfKeys returns n row probes of a skewed serving stream in bags of
// probeBag keys: each bag's table is drawn uniformly from [0, tables) and
// each of its rows is a Zipf(s) rank over [0, rows), so every table has the
// same hot head. The stream is a pure function of its arguments.
func zipfKeys(n, tables, rows int, s float64, seed uint64) []Key {
	rng := sim.NewRNG(seed)
	zipf := sim.NewZipfCDF(s, rows).Sampler(rng.Split())
	keys := make([]Key, n)
	var f int32
	for i := range keys {
		if i%probeBag == 0 {
			f = int32(rng.Intn(tables))
		}
		keys[i] = Key{Feature: f, Row: int32(zipf.Next())}
	}
	return keys
}

// touchAdmitLoop makes n probes, cycling through keys from the start in bags
// of probeBag keys (a bag ends early at the end of keys or of the n probes):
// each bag is touched and, unless every row was resident, admitted whole
// without row values — the route-plan compiler's use of a timing-mode cache.
func touchAdmitLoop(c *Cache, keys []Key, n int) {
	var rows [probeBag]int32
	for j := 0; n > 0; {
		bag := keys[j:min(j+probeBag, j+n, len(keys))]
		for i, k := range bag {
			rows[i] = k.Row
		}
		f, r := bag[0].Feature, rows[:len(bag)]
		if !c.TouchRows(f, r) {
			c.AdmitRows(f, r, nil)
		}
		n -= len(bag)
		if j += len(bag); j == len(keys) {
			j = 0
		}
	}
}

// BenchmarkTouchAdmit measures one row probe of the route-plan compiler's
// bag pattern (TouchRows over a bag of probeBag rows, then AdmitRows unless
// every row hit) over a Zipf-1.05 stream on the serve-zipf shape: 24 remote
// tables of 262,144 rows, whose state bits take 1.5 MB. At 1.26M slots every
// key of the stream fits, so the steady state is resident probes; at 4096
// slots six probes in ten insert and evict. A warm pass before the timer
// fills the slots, so the measured loop allocates nothing.
func BenchmarkTouchAdmit(b *testing.B) {
	keys := zipfKeys(1<<21, 24, 262_144, 1.05, 2024)
	for _, slots := range []int{1_263_225, 4096} {
		b.Run(fmt.Sprintf("slots=%d", slots), func(b *testing.B) {
			c := New(slots, 64, uniform(24, 262_144), false)
			touchAdmitLoop(c, keys, len(keys))
			b.ReportAllocs()
			b.ResetTimer()
			touchAdmitLoop(c, keys, b.N)
		})
	}
}
