package cache

import "pgasemb/internal/sim"

// ZipfKeys returns n row probes of a skewed serving stream: each key's table
// is drawn uniformly from [0, tables) and its row is a Zipf(s) rank over
// [0, rows), so every table has the same hot head. The stream is a pure
// function of its arguments. It feeds the cache's hot-path measurements.
func ZipfKeys(n, tables, rows int, s float64, seed uint64) []Key {
	rng := sim.NewRNG(seed)
	zipf := sim.NewZipfCDF(s, rows).Sampler(rng.Split())
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = Key{Feature: int32(rng.Intn(tables)), Row: int32(zipf.Next())}
	}
	return keys
}

// TouchAdmitLoop makes n probes, cycling through keys from the start: each
// key is touched and, on a miss, admitted without row values — the route-plan
// compiler's use of a timing-mode cache. It is the measured body of the
// cache's hot-path benchmarks.
func TouchAdmitLoop(c *Cache, keys []Key, n int) {
	for i, j := 0, 0; i < n; i++ {
		if !c.Touch(keys[j]) {
			c.Admit(keys[j], nil)
		}
		if j++; j == len(keys) {
			j = 0
		}
	}
}
