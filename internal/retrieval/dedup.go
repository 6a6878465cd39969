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

// DedupView is one batch's deduplication classification. All matrices are
// indexed [owner][consumer]; the diagonal describes each GPU's local (own
// minibatch) lookups, where only gather dedup can apply.
type DedupView struct {
	// Uniq counts the distinct (table, hashed-row) keys among the pair's
	// pooled bag references (cache misses only: RoutePlan.pairMissIdx).
	Uniq [][]int64
	// Wire marks pairs whose priced route ships their unique rows instead
	// of their dense vectors (off-diagonal only; RoutePlan.pairVecs counts
	// the dense vectors: the consumer minibatch × owner tables, minus cache
	// hits; empty bags count, as the dense scheme ships their zero
	// vectors).
	Wire [][]bool
	// Gather marks non-wire pairs where the staged unique-row gather beats
	// the dense gather (timing model only).
	Gather [][]bool
	// NewAt[src][dst][smp-dstLo] counts the pair's keys FIRST seen at that
	// consumer sample: the earliest of the consumer's samples whose miss
	// bags reference the key. It sums to Uniq[src][dst] and lets the chunked
	// fused kernel apportion unique-row work per chunk.
	NewAt [][][]int32
	// Keys[src][dst] lists the pair's unique keys (owner-local table index
	// <<32 | hashed row) table-major: tables in plan order, each table's
	// keys in first-seen sample order. Functional wire pairs only.
	Keys [][][]uint64
	// Expand[src][dst] is the inverse-expansion map: for every miss-bag
	// reference in table-major order (tables in plan order, then samples
	// ascending, bag order), the position of its row in Keys. Functional
	// wire pairs only.
	Expand [][][]int32

	// Node-level classification (multi-node machines only; all nil
	// otherwise). Matrices are indexed [owner GPU][destination node]: the
	// union of the owner's pair key sets over the node's consumers. When a
	// node-level wire win holds, each unique row crosses the NIC once per
	// node — staged on one lane GPU and redistributed over NVLink — instead
	// of once per (owner, consumer) pair or, dense, once per reference.
	//
	// NodeUniq counts distinct keys among the owner's miss references into
	// the node; NodeWire marks remote nodes whose priced route stages them
	// instead of routing the node's pairs one by one. NodeNewAt
	// spreads NodeUniq over the node's sample range, each key at the
	// earliest node sample referencing it; NodeKeys/NodeExpand are the
	// functional key list (table-major, as Keys) and each consumer GPU's
	// inverse-expansion map into it (table-major, as Expand).
	NodeUniq  [][]int64
	NodeWire  [][]bool
	NodeNewAt [][][]int32
	NodeKeys  [][][]uint64
	// NodeExpand is indexed [owner GPU][consumer GPU] (positions refer to
	// the consumer node's NodeKeys entry). Functional node-wire only.
	NodeExpand [][][]int32
}

// firstSeenIn sums a first-seen spread (NewAt or NodeNewAt, whose entry i
// counts the keys first seen at sample lo+i) over sample range [s0, s1),
// clamped to the samples the spread covers.
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
// positions). expand is the inverse-expansion
// map addressing rows — dv.Expand[src][g] for pair-level wire dedup,
// dv.NodeExpand[src][g] for node-level (where rows is the node staging
// buffer) — and part is src's partition of the batch, whose bag lengths
// step through it. Cache-hit vectors were pooled at classification time and
// are skipped; empty bags become zero vectors, as LookupPooled makes them.
func (s *System) functionalExpand(g, src int, rows []float32, expand []int32, part *sparse.Batch, view *CacheView, dst []float32) {
	cfg := s.Cfg
	B := cfg.BatchSize
	lo, hi := s.Minibatch(g)
	e := 0
	for fi, fid := range s.Plan[src] {
		for smp := lo; smp < hi; smp++ {
			if view != nil && view.Hit[src][fi*B+smp] {
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
