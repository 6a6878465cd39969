package retrieval

import (
	"fmt"

	"pgasemb/internal/cache"
)

// Hot-row cache integration. Each GPU g may hold a software-managed cache of
// embedding rows owned by OTHER GPUs (internal/cache). A pooled output
// vector (table fid on owner p, sample smp consumed by g≠p) is a CACHE HIT
// when every hashed row of its bag is resident in g's cache: the owner skips
// gathering and sending that vector entirely, and the consumer pools it from
// local HBM instead — the serving-side mechanism of HugeCTR's Hierarchical
// Parameter Server, which pays off exactly on the skewed streams
// internal/workload generates.
//
// Classification (probe → hit/miss → admission) happens host-side during
// route-plan compilation (residencyTable in plan.go, which resolves
// consumer-held replicas and hot-table mirrors before probing). The compile
// walk steps the tables in plan order and each table's consumers in turn,
// so every consumer's cache sees its probes in one canonical order (owner,
// then local table, then sample), and outcomes are a pure function of the
// workload seed and cache capacity — never of simulated-process
// interleaving. Keys are (table, row), not owner, so residency survives
// adaptive-placement plan swaps. The refill path (admitting missed rows)
// models HPS-style lazy asynchronous insertion: it rides along with the miss
// traffic the system already pays for and is not charged to batch latency.
// Both walks price a consumer's cache-hit gathers with one stage count,
// gatherTraffic.addHits (cost.go), at gpu.Params.HotReadEquivalent (the hot
// working set mostly lives in L2).

// cacheEnabled reports whether this run classifies batches against a
// hot-row cache. Single-GPU systems have no remote rows to cache.
func (s *System) cacheEnabled() bool {
	return s.Cfg.CacheFraction > 0 && s.Cfg.GPUs > 1
}

// poolFromCache reproduces embedding.Table.LookupPooled bit-exactly from
// cached rows: the same sum in the same (bag) order. rows holds the bag's
// hashed row indices, which the classifier has just verified resident.
func poolFromCache(c *cache.Cache, fid int32, rows []int32, out []float32) {
	for i := range out {
		out[i] = 0
	}
	for _, row := range rows {
		vec := c.Row(cache.Key{Feature: fid, Row: row})
		if vec == nil {
			panic(fmt.Sprintf("retrieval: hit-classified row %d of table %d not resident", row, fid))
		}
		for i, v := range vec {
			out[i] += v
		}
	}
}
