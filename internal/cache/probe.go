package cache

import "pgasemb/internal/sim"

// ProbeBag is the bag size of ZipfKeys' stream: about the mean pooling
// factor of a U[1, 64] serving workload.
const ProbeBag = 32

// ZipfKeys returns n row probes of a skewed serving stream in bags of
// ProbeBag keys: each bag's table is drawn uniformly from [0, tables) and
// each of its rows is a Zipf(s) rank over [0, rows), so every table has the
// same hot head. The stream is a pure function of its arguments. It feeds
// the cache's hot-path measurements.
func ZipfKeys(n, tables, rows int, s float64, seed uint64) []Key {
	rng := sim.NewRNG(seed)
	zipf := sim.NewZipfCDF(s, rows).Sampler(rng.Split())
	keys := make([]Key, n)
	var f int32
	for i := range keys {
		if i%ProbeBag == 0 {
			f = int32(rng.Intn(tables))
		}
		keys[i] = Key{Feature: f, Row: int32(zipf.Next())}
	}
	return keys
}

// TouchAdmitLoop makes n probes, cycling through keys from the start in bags
// of ProbeBag keys (a bag ends early at the end of keys or of the n probes):
// each bag is touched and, unless every row was resident, admitted whole
// without row values — the route-plan compiler's use of a timing-mode cache.
// It is the measured body of the cache's hot-path benchmarks.
func TouchAdmitLoop(c *Cache, keys []Key, n int) {
	var rows [ProbeBag]int32
	for j := 0; n > 0; {
		bag := keys[j:min(j+ProbeBag, j+n, len(keys))]
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
