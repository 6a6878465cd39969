package retrieval

import (
	"pgasemb/internal/sparse"
)

// Batch-level index deduplication. Zipfian traffic repeats the same hot rows
// many times per batch, so the dense scheme — pool every (sample, feature)
// vector at the owner and ship it — moves redundant data. With Config.Dedup
// on, the host classifies each batch per (owner GPU, consumer GPU) pair: the
// pair's cache-missed bag references collapse to a unique (table, row) key
// set plus an inverse-expansion map. Two independent wins follow:
//
//   - Wire dedup (off-diagonal pairs): the owner gathers and ships each
//     unique row ONCE; the consumer expands — re-pools every miss bag from
//     the small received row set at L2-equivalent cost. Whether that beats
//     shipping the dense pooled vectors depends on what the walk charges
//     (gather occupancy, wire, expansion), not on which count is smaller,
//     so the choice is priced per pair per batch (priceRoutes, cost.go).
//
//   - Gather dedup (any pair, timing model only): even when dense shipping
//     wins, the owner's gather can read each unique row from HBM once, stage
//     it, and serve duplicate references from the staged working set at
//     hot-row efficiency. gatherDedupWins (cost.go) decides by pricing the
//     pair's gather both ways with the bytes the walk charges. Output data
//     is unchanged, so this needs no functional counterpart.
//
// Classification happens host-side, per batch, as one step of route-plan
// compilation's walk over the tables in plan order (plan.go). Each table's
// dedup step runs after its residency step — cache-hit vectors never enter
// the key sets, so a row served from the hot-row cache is not
// double-counted as a dedup win. A timing run draws each table as the walk
// reaches it, so the batch is never materialised; a functional run reads it
// from the materialised batch, and its key lists follow plan order. Outcomes
// are a pure function of the workload seed and cache state, never of
// process interleaving.

// firstSeenIn sums a first-seen spread (a pair's or a node's newAt, whose
// entry i counts the keys first seen at sample lo+i) over sample range
// [s0, s1), clamped to the samples the spread covers.
func firstSeenIn(newAt []int32, lo, s0, s1 int) int {
	s0, s1 = clampRange(s0, s1, lo, lo+len(newAt))
	n := 0
	for smp := s0; smp < s1; smp++ {
		n += int(newAt[smp-lo])
	}
	return n
}

// functionalExpand re-pools consumer g's miss vectors of a wire pairing with
// owner src from the received unique rows, bit-exactly reproducing what the
// dense path (owner-side LookupPooled + ship) would have written: it steps
// through the bags table-major, as the expansion maps do, and pools each in
// the same accumulation order (bag order, via the inverse-expansion
// positions). expand is the inverse-expansion map addressing rows — the
// pair's expand for pair-level wire dedup, its nodeExpand for node-level
// (where rows is the node staging buffer) — and part is src's partition of
// the batch, whose bag lengths step through it. Hit vectors were pooled at
// classification time and are skipped; empty bags become zero vectors, as
// LookupPooled makes them.
func (s *System) functionalExpand(g, src int, rows []float32, expand []int32, part *sparse.Batch, plan *RoutePlan, dst []float32) {
	cfg := s.Cfg
	lo, hi := s.Minibatch(g)
	e := 0
	for fi, fid := range s.Plan[src] {
		for smp := lo; smp < hi; smp++ {
			if plan.isHit(src, fi, smp) {
				continue
			}
			bagLen := part.Features[fi].PoolingFactor(smp)
			out := dst[((smp-lo)*cfg.TotalTables+fid)*cfg.Dim:][:cfg.Dim]
			poolFromRows(rows, expand[e:e+bagLen], cfg.Dim, out)
			e += bagLen
		}
	}
}

// poolFromRows pools one bag from staged unique rows: positions index into
// rows (dim floats each), in bag order. Mirrors embedding.Table.LookupPooled
// exactly (see poolFromCache).
func poolFromRows(rows []float32, pos []int32, dim int, out []float32) {
	for i := range out {
		out[i] = 0
	}
	for _, p := range pos {
		vec := rows[int(p)*dim:][:dim]
		for i, v := range vec {
			out[i] += v
		}
	}
}
