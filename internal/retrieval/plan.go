package retrieval

import (
	"pgasemb/internal/cache"
	"pgasemb/internal/embedding"
	"pgasemb/internal/metrics"
	"pgasemb/internal/placement"
	"pgasemb/internal/sim"
	"pgasemb/internal/sparse"
)

// Route-plan compilation. Every batch's key classification — which output
// vectors are cache hits, which (owner, consumer) pairs ship unique rows
// instead of dense pooled vectors, which pairs ride node-level staging — used
// to be consulted ad hoc by each backend in each mode. It now happens in ONE
// host-side pass per batch: NextBatchData compiles a RoutePlan, and backends
// only ask the plan how a pair is routed. Timing and functional execution
// therefore follow the same decisions by construction, and a new
// classification feature is wired once, here, instead of once per backend
// per mode.
//
// The plan is a pure function of the workload seed, the cache state and the
// machine shape — never of simulated-process interleaving — so every GPU's
// process reads identical routes, which is what lets backends make
// whole-machine decisions without any cross-process agreement protocol.

// PairClass is the route of one (owner, consumer) pair.
type PairClass uint8

const (
	// RouteLocal marks the diagonal: the owner's own minibatch, pooled
	// straight into local HBM.
	RouteLocal PairClass = iota
	// RouteDense ships one pooled vector per (sample, table) — the paper's
	// base scheme, minus cache hits.
	RouteDense
	// RouteWire ships the pair's unique rows once; the consumer expands
	// (pair-level index deduplication).
	RouteWire
	// RouteNodeWire ships each row once per destination NODE, staged on a
	// lane GPU and redistributed over NVLink (multi-node machines, one-sided
	// transports only — a pair-addressed collective cannot use it).
	RouteNodeWire
)

// String labels the class for diagnostics.
func (c PairClass) String() string {
	switch c {
	case RouteLocal:
		return "local"
	case RouteDense:
		return "dense"
	case RouteWire:
		return "wire"
	case RouteNodeWire:
		return "node-wire"
	default:
		return "unknown"
	}
}

// RoutePlan is one batch's compiled classification: the hot-row cache view,
// the deduplication view, and the per-pair route queries every backend
// shares. Cache and Dedup are nil when the corresponding feature is off.
type RoutePlan struct {
	sys   *System
	Cache *CacheView
	Dedup *DedupView

	// serve is the batch's replica routing (nil unless Config.Replicas > 1):
	// serve[o][c] is the GPU that serves shard o's vectors to consumer c,
	// chosen from the shard's healthy replicas — the consumer itself when it
	// holds a mirror, otherwise the replica with the best degradation-aware
	// path to the consumer. Computed host-side per batch from the fault
	// schedule, so recompilation routes around links that fault mid-run.
	// Backends read it only through ServeGPU.
	serve [][]int

	// pooled is the batch's pooled-index arithmetic: pooled[o][smp] counts
	// the indices of shard o's tables over samples [0, smp), under the
	// placement the batch executes (len BatchSize+1 per shard). Every
	// pooled-index total the timing model needs is a difference of two
	// entries, so no timing path reads the batch or its pooling factors
	// after compile.
	pooled [][]int64
}

// localIndexTotal returns the pooled-index total of shard o's tables over
// samples [lo, hi).
func (p *RoutePlan) localIndexTotal(o, lo, hi int) int64 {
	return rangeSum(p.pooled[o], lo, hi)
}

// rangeSum returns the total over samples [lo, hi) of a prefix array whose
// entry smp sums samples [0, smp); an empty or inverted range sums to zero.
func rangeSum(pre []int64, lo, hi int) int64 {
	if hi <= lo {
		return 0
	}
	return pre[hi] - pre[lo]
}

// ServeGPU returns the GPU serving shard o to consumer c (o itself without
// replication).
func (p *RoutePlan) ServeGPU(o, c int) int {
	if p.serve == nil {
		return o
	}
	return p.serve[o][c]
}

// pairVecs returns the pooled vectors shard o owes consumer c this batch:
// c's minibatch times o's tables, minus the vectors c reads from its own
// cache or hot-table mirrors.
func (p *RoutePlan) pairVecs(o, c int) int {
	s := p.sys
	lo, hi := s.Minibatch(c)
	vecs := (hi - lo) * s.LocalTables(o)
	if v := p.Cache; v != nil {
		vecs -= v.WireVecs[o][c]
	}
	return vecs
}

// pairItems returns the rows pair (o, c), of route cls, lands at its
// destination this batch: its unique rows on a wire route, and on a node-wire
// route the whole node-staged row set, which lands on the node's stage-lane
// GPU only (the node's other pairs land nothing); its pooled vectors
// otherwise.
func (p *RoutePlan) pairItems(cls PairClass, o, c int) int {
	switch cls {
	case RouteWire:
		return int(p.Dedup.Uniq[o][c])
	case RouteNodeWire:
		if node := p.sys.nodeOf(c); p.sys.stageGPU(o, node) == c {
			return int(p.Dedup.NodeUniq[o][node])
		}
		return 0
	}
	return p.pairVecs(o, c)
}

// itemsIn returns the items pair (o, c), of route cls, outputs for samples
// [lo, hi) of c's minibatch, and the GPU they are addressed to: on a wire
// route the pair's keys first seen in the range, on a node-wire route the
// node-level keys first seen there (addressed to the node's stage-lane GPU),
// otherwise its cache-missed vectors. Over the whole batch they sum to
// pairItems (a node-wire route's summed over the node's pairs).
func (p *RoutePlan) itemsIn(cls PairClass, o, c, lo, hi int) (items, target int) {
	switch cls {
	case RouteWire:
		return p.NewKeysIn(o, c, lo, hi), c
	case RouteNodeWire:
		node := p.sys.nodeOf(c)
		return p.NodeNewKeysIn(o, node, lo, hi), p.sys.stageGPU(o, node)
	}
	hitV, _ := p.OwnerChunkHits(o, lo, hi)
	return (hi-lo)*p.sys.LocalTables(o) - hitV, c
}

// pairMissIdx returns the pooled indices behind pairVecs(o, c): shard o's
// references over c's minibatch, minus those of the vectors c reads from its
// own cache or hot-table mirrors.
func (p *RoutePlan) pairMissIdx(o, c int) int64 {
	lo, hi := p.sys.Minibatch(c)
	idx := p.localIndexTotal(o, lo, hi)
	if v := p.Cache; v != nil {
		idx -= v.WireIdx[o][c]
	}
	return idx
}

// Class returns the (owner src → consumer dst) route under a one-sided
// transport, where node-level wire dedup supersedes the pair-level decision.
func (p *RoutePlan) Class(src, dst int) PairClass {
	if src == dst {
		return RouteLocal
	}
	dv := p.Dedup
	if dv == nil {
		return RouteDense
	}
	if p.sys.nodeWirePair(dv, src, dst) {
		return RouteNodeWire
	}
	if dv.Wire[src][dst] {
		return RouteWire
	}
	return RouteDense
}

// CollectiveClass returns the pair's route under a pair-addressed collective:
// the all-to-all's segments are addressed per (owner, consumer), so node-level
// staging never applies and the pair-level wire decision stands.
func (p *RoutePlan) CollectiveClass(src, dst int) PairClass {
	if src == dst {
		return RouteLocal
	}
	if dv := p.Dedup; dv != nil && dv.Wire[src][dst] {
		return RouteWire
	}
	return RouteDense
}

// segmentVecs returns the vectors GPU server ships into consumer dst's
// all-to-all segment: the collective route's pairItems summed over every
// shard the plan has server serving dst.
func (p *RoutePlan) segmentVecs(server, dst int) int {
	vecs := 0
	for o := 0; o < p.sys.Cfg.GPUs; o++ {
		if p.ServeGPU(o, dst) == server {
			vecs += p.pairItems(p.CollectiveClass(o, dst), o, dst)
		}
	}
	return vecs
}

// GatherDedup reports whether the pair's owner-side gather stages each unique
// row once and serves duplicate references from the staged working set
// (timing model only; output data is unchanged).
func (p *RoutePlan) GatherDedup(src, dst int) bool {
	dv := p.Dedup
	return dv != nil && dv.Gather[src][dst]
}

// NewKeysIn returns the pair's unique keys first seen in sample range
// [s0, s1), clamped to the consumer's minibatch. Wire and gather-dedup routes
// only.
func (p *RoutePlan) NewKeysIn(src, dst, s0, s1 int) int {
	lo, hi := p.sys.Minibatch(dst)
	if s0 <= lo && s1 >= hi {
		return int(p.Dedup.Uniq[src][dst]) // the whole minibatch's NewAt sum
	}
	return firstSeenIn(p.Dedup.NewAt[src][dst], lo, s0, s1)
}

// NodeNewKeysIn returns owner src's node-level unique keys first seen in
// sample range [s0, s1), clamped to the node's sample range. Node-wire routes
// only.
func (p *RoutePlan) NodeNewKeysIn(src, node, s0, s1 int) int {
	lo, _ := p.sys.nodeSampleRange(node)
	return firstSeenIn(p.Dedup.NodeNewAt[src][node], lo, s0, s1)
}

// OwnerChunkHits returns the hit vectors (and pooled indices) of shard o
// within sample range [s0, s1) — vectors their consumers read without the
// owner, so no server gathers or sends them: the fused kernel's per-chunk
// discount.
func (p *RoutePlan) OwnerChunkHits(o, s0, s1 int) (vecs int, idx int64) {
	view := p.Cache
	if view == nil {
		return 0, 0
	}
	return int(rangeSum(view.hitVecs[o], s0, s1)), rangeSum(view.hitIdx[o], s0, s1)
}

// ConsumerChunkHits returns the hit vectors (and pooled indices) that
// consumer g pools locally — from its cache or its hot-table mirrors — for
// its minibatch samples within [s0, s1).
func (p *RoutePlan) ConsumerChunkHits(g, s0, s1 int) (vecs int, idx int64) {
	if p.Cache == nil {
		return 0, 0
	}
	s := p.sys
	lo, hi := s.Minibatch(g)
	s0, s1 = clampRange(s0, s1, lo, hi)
	if s1 <= s0 {
		return 0, 0
	}
	for o := 0; o < s.Cfg.GPUs; o++ {
		if o == g {
			continue
		}
		v, i := p.OwnerChunkHits(o, s0, s1)
		vecs += v
		idx += i
	}
	return vecs, idx
}

// planScratch is the per-run arena for plan COMPILATION: working state that
// never outlives one NextBatchData call. Per-batch outputs — the views, key
// lists, expansion maps — are still allocated per batch. The run's batch
// driver (Drive) compiles each batch at its barrier, in batch order, and
// keeps one batch live, so one per-run arena could own them. Simulated
// processes never run concurrently, so NextBatchData needs no
// synchronisation.
type planScratch struct {
	pairSet rowSet            // one (consumer, table)'s unique rows
	nodeSet rowSet            // one (remote node, table)'s unique rows
	pairAcc []pairAcc         // the dedup walk's per-pair sums, [owner*GPUs+consumer]
	nodeAcc []nodeAcc         // the dedup walk's per-(owner, node) sums, [owner*Nodes+node]
	rows    []int32           // residency step's hashed references of one minibatch range
	hit     []bool            // timing mode's residency hits of one table, by sample
	bag     sparse.FeatureBag // timing mode's one table, drawn in plan order
	ownerOf []int             // owner GPU of every feature, for the pooling pass
}

// drawPooling opens the next batch with the generator's pooling pass and
// returns the plan's per-shard pooled-index prefix sums under the current
// placement: pooled[o][smp] counts shard o's indices over samples [0, smp).
// Each feature's factors are added into its owner's shard as they are drawn.
func (s *System) drawPooling() [][]int64 {
	pooled := grid[int64](s.Cfg.GPUs, s.Cfg.BatchSize+1)
	owner := scratchSlice(&s.planScr.ownerOf, s.Cfg.TotalTables)
	for o, fids := range s.Plan {
		for _, fid := range fids {
			owner[fid] = o
		}
	}
	s.gen.NextPoolingSums(func(f int) []int64 { return pooled[owner[f]][1:] })
	scan(pooled)
	return pooled
}

// scan turns every row's per-sample counts into prefix sums, in place.
func scan(rows [][]int64) {
	for _, row := range rows {
		for smp := 1; smp < len(row); smp++ {
			row[smp] += row[smp-1]
		}
	}
}

// drawBatch materialises the open batch in feature order.
func (s *System) drawBatch() *sparse.Batch {
	b := &sparse.Batch{Size: s.Cfg.BatchSize, Features: make([]sparse.FeatureBag, s.Cfg.TotalTables)}
	for f := range b.Features {
		s.gen.Feature(f, &b.Features[f])
	}
	return b
}

// compileRoutePlan runs the classifier passes for one batch, whose pooled
// prefixes drawPooling returned, and attaches the resulting plan to bd.
// Every pass that reads indices runs in one walk over the tables in plan
// order: for each table, the residency step for every consumer, then the
// dedup step, while its bags are in cache. The
// bags come from bd.Sparse when the batch is materialised (functional runs
// and PlanCompileLoop); a timing run draws each table as the walk reaches
// it (Generator.Feature). With a placement controller attached the walk
// also records its statistics (observeTable, and the residency and dedup
// steps' per-table counts). Runs that read no indices and record nothing
// skip the walk.
func (s *System) compileRoutePlan(bd *BatchData, pooled [][]int64) {
	plan := &RoutePlan{sys: s, pooled: pooled}
	bd.Plan = plan
	if s.cacheEnabled() || s.hotMirrorActive() {
		// Residency first: vectors a consumer reads without their owner
		// never enter the dedup key sets, so the dedup step sees only the
		// owner-served misses.
		plan.Cache = s.newCacheView()
	}
	if s.Cfg.Dedup { // single-GPU systems too: diagonal gather dedup
		s.beginDedup()
	}
	st := s.placeStats()
	if st != nil {
		st.BeginBatch()
	}
	if plan.Cache != nil || s.Cfg.Dedup || st != nil {
		for o, fids := range s.Plan {
			for fi, fid := range fids {
				fb := &s.planScr.bag
				if bd.Sparse != nil {
					fb = bd.Sparse.FeatureByID(fid)
				} else {
					s.gen.Feature(fid, fb)
				}
				if st != nil {
					s.observeTable(st, fb)
				}
				var hit []bool
				if plan.Cache != nil {
					hit = s.residencyTable(bd, o, fi, fb)
				}
				if s.Cfg.Dedup {
					s.dedupTable(o, fi, fb, hit)
				}
			}
		}
	}
	if v := plan.Cache; v != nil {
		scan(v.hitVecs)
		scan(v.hitIdx)
	}
	if s.Cfg.Dedup {
		plan.Dedup = s.finishDedup(plan)
		if s.Cfg.GPUs > 1 {
			// The post-quiet rendezvous one-sided backends await before
			// expanding: quiet only drains a PE's OWN pipes, so a consumer
			// must not expand until every owner has finished streaming. The
			// baseline never awaits it (its collective is already a global
			// synchronisation point); an unawaited barrier is inert.
			bd.dedupBarrier = sim.NewBarrier(s.Env, s.Cfg.GPUs)
		}
	}
	if st != nil {
		st.EndBatch()
	}
	if s.Cfg.Replicas > 1 {
		plan.serve = s.computeServe(s.batchSeq)
	}
}

// grid returns a zeroed r×c matrix over one backing array.
func grid[T any](r, c int) [][]T {
	flat := make([]T, r*c)
	m := make([][]T, r)
	for i := range m {
		m[i] = flat[i*c : (i+1)*c : (i+1)*c]
	}
	return m
}

// holdsReplica reports whether consumer c holds a copy of shard o: its own
// shard, or one of the mirrors Config.Replicas places on GPUs (o+k) mod GPUs
// for k < Replicas. The route plan always serves such a pair locally.
func (s *System) holdsReplica(c, o int) bool {
	G := s.Cfg.GPUs
	return c == o || ((c-o)%G+G)%G < s.Cfg.Replicas
}

// newCacheView returns an empty residency view for the batch, with its
// functional hit bitmap when the run is functional.
func (s *System) newCacheView() *CacheView {
	cfg := s.Cfg
	B := cfg.BatchSize
	hits := grid[int64](2*cfg.GPUs, B+1)
	view := &CacheView{
		WireVecs: grid[int](cfg.GPUs, cfg.GPUs),
		WireIdx:  grid[int64](cfg.GPUs, cfg.GPUs),
		hitVecs:  hits[:cfg.GPUs],
		hitIdx:   hits[cfg.GPUs:],
	}
	if cfg.Functional {
		view.Hit = make([][]bool, cfg.GPUs)
		for p := range view.Hit {
			view.Hit[p] = make([]bool, len(s.Plan[p])*B)
		}
	}
	return view
}

// residencyTable is the residency step: it decides, for every consumer,
// which of its minibatch's vectors of owner p's local table fi (whose bags
// fb holds) it reads without the owner, and returns the table's hits by
// sample. Every non-empty vector is decided once:
//
//   - a shard the consumer holds a replica of is skipped: the route plan
//     serves it locally (ServeGPU), and it never probes the cache;
//   - a vector of a mirrored hot table is a guaranteed hit;
//   - anything else probes the consumer's hot-row cache: a hit if every
//     hashed row of its bag is resident, otherwise the whole bag is admitted
//     (lazy refill, off the critical path alongside the miss fetch the batch
//     pays anyway).
//
// Each consumer's cache sees its probes in the canonical order (owner,
// local table, sample), whatever order the consumers are stepped in.
//
// In functional mode hit vectors are pooled into bd.Final immediately —
// mirrored ones straight off the owner's table (the mirror copy is
// bit-identical), cached ones from the cache contents as of this
// classification, so later evictions cannot corrupt earlier batches. The
// transfer-log executor skips hit vectors, so every backend serves cache and
// mirror reads alike.
func (s *System) residencyTable(bd *BatchData, p, fi int, fb *sparse.FeatureBag) []bool {
	cfg := s.Cfg
	B := cfg.BatchSize
	view := bd.Plan.Cache
	fid := fb.FeatureID
	hit := scratchSlice(&s.planScr.hit, B)
	if cfg.Functional {
		hit = view.Hit[p][fi*B : (fi+1)*B]
	}
	clear(hit)
	mirrored := s.hotMirrorActive() && s.hotMirror[fid]
	if !mirrored && !s.cacheEnabled() {
		return hit
	}
	st := s.placeStats()
	if mirrored {
		st = nil // a mirrored table's cache counts are not observed
	}
	var tbl *embedding.Table
	var w []float32
	if cfg.Functional {
		tbl = s.colls[p].Tables[fi]
		w = tbl.Weights.Data()
	}
	for g := 0; g < cfg.GPUs; g++ {
		if s.holdsReplica(g, p) {
			continue
		}
		var c *cache.Cache
		if !mirrored {
			c = s.Caches.GPU(g)
		}
		var obs *placement.Counts
		if st != nil {
			obs = st.Open(fid, g)
		}
		lo, hi := s.Minibatch(g)
		// The minibatch's hashed rows; bag smp's are
		// rows[Offsets[smp]-base : Offsets[smp+1]-base].
		var rows []int32
		base := fb.Offsets[lo]
		if !mirrored {
			raws := fb.Indices[base:fb.Offsets[hi]]
			rows = scratchSlice(&s.planScr.rows, len(raws))
			embedding.HashRows(rows, raws, cfg.Rows)
		}
		for smp := lo; smp < hi; smp++ {
			bag := fb.Bag(smp)
			if len(bag) == 0 {
				continue // zero vector; nothing to gather or send
			}
			var bagRows []int32
			if !mirrored {
				bagRows = rows[fb.Offsets[smp]-base : fb.Offsets[smp+1]-base]
				if !c.TouchRows(int32(fid), bagRows) {
					c.AdmitRows(int32(fid), bagRows, w)
					continue
				}
			}
			hit[smp] = true
			if obs != nil {
				obs.CacheVecs++
				obs.CacheIdx += float64(len(bag))
			}
			view.WireVecs[p][g]++
			view.WireIdx[p][g] += int64(len(bag))
			view.hitVecs[p][smp+1]++
			view.hitIdx[p][smp+1] += int64(len(bag))
			if !cfg.Functional {
				continue
			}
			off := ((smp-lo)*cfg.TotalTables + fid) * cfg.Dim
			out := bd.Final[g].Data()[off : off+cfg.Dim]
			if mirrored {
				tbl.LookupPooled(bag, out)
			} else {
				poolFromCache(c, int32(fid), bagRows, out)
			}
		}
	}
	return hit
}

// Dedup classification is one step of the compile walk. The step,
// dedupTable, runs one (owner, table)'s references through the row sets and
// adds into per-pair and per-(owner, node) accumulators; finishDedup turns
// the sums into the batch's view. The walk steps the tables in plan order,
// so functional key lists come out table-major in plan order. A key is
// (table, hashed row), so every count the view holds is a sum over
// per-table key sets, which no step order could change.
//
// pairAcc accumulates one (owner, consumer) pair's classification over the
// owner's tables, and holds the pair's state while priceRoutes decides its
// owner's routes.
type pairAcc struct {
	miss, dense, uniq int64
	newAt             []int32
	keys              []uint64 // functional only: first-seen keys, table-major
	expand            []int32  // functional only: each reference's position in keys
	nodeExpand        []int32  // functional only: each reference's position in the node's keys

	terms routeTerms   // the pair's current route terms
	link  int64        // wire vectors of the owner link the consumer names (0 from beginDedup)
	after sim.Duration // slowest still-dense link from the consumer on
}

// nodeAcc accumulates one (owner, remote node) classification over the
// owner's tables.
type nodeAcc struct {
	uniq  int64
	newAt []int32  // spread over the node's sample range
	keys  []uint64 // functional only: first-seen keys, table-major
}

// beginDedup readies the walk's accumulators for a batch. Each pair's NewAt
// spread and each remote node's are fresh per batch (the view keeps them);
// both come from one backing array per kind.
func (s *System) beginDedup() {
	G, B := s.Cfg.GPUs, s.Cfg.BatchSize
	pairs := scratchSlice(&s.planScr.pairAcc, G*G)
	newAt := make([]int32, G*B)
	for src := 0; src < G; src++ {
		for dst := 0; dst < G; dst++ {
			lo, hi := s.Minibatch(dst)
			pairs[src*G+dst], newAt = pairAcc{newAt: newAt[: hi-lo : hi-lo]}, newAt[hi-lo:]
		}
	}
	if !s.multiNode() {
		return
	}
	N := s.cluster.Nodes
	nodes := scratchSlice(&s.planScr.nodeAcc, G*N)
	newAt = make([]int32, G*B)
	for src := 0; src < G; src++ {
		for node := 0; node < N; node++ {
			na := nodeAcc{}
			if node != s.nodeOf(src) {
				lo, hi := s.nodeSampleRange(node)
				na.newAt, newAt = newAt[:hi-lo:hi-lo], newAt[hi-lo:]
			}
			nodes[src*N+node] = na
		}
	}
}

// dedupTable is the walk's step: it runs owner src's local table fi, whose
// references fb holds, through the row sets and adds the results into the
// walk's accumulators. hit, when non-nil, marks the table's vectors remote
// consumers read without the owner (indexed by sample); they never enter
// the key sets.
func (s *System) dedupTable(src, fi int, fb *sparse.FeatureBag, hit []bool) {
	G := s.Cfg.GPUs
	fn := s.Cfg.Functional
	rows := s.Cfg.Rows
	pairSet, nodeSet := &s.planScr.pairSet, &s.planScr.nodeSet
	accs := s.planScr.pairAcc[src*G : (src+1)*G]
	per, multi := G, s.multiNode()
	if multi {
		per = s.cluster.GPUsPerNode
	}
	srcNode := s.nodeOf(src)
	st := s.placeStats()
	fid := fb.FeatureID
	// Each bag is hashed in bulk, up to len(hashed) rows at a time, into a
	// stack buffer: a run-owned scratch would allocate in every short run.
	var hashed [64]int32
	for first := 0; first < G; first += per {
		// The remote node's accumulator and sample base. The placement
		// statistics count the owner's node's distinct rows too.
		var na *nodeAcc
		var nodeLo int
		node := s.nodeOf(first)
		if multi && node != srcNode {
			na = &s.planScr.nodeAcc[src*s.cluster.Nodes+node]
			nodeLo, _ = s.nodeSampleRange(node)
		}
		nodes := na != nil || (multi && st != nil)
		if nodes {
			nodeSet.reset(rows, fn)
		}
		for dst := first; dst < first+per; dst++ {
			a := &accs[dst]
			dlo, dhi := s.Minibatch(dst)
			skip := hit
			if src == dst {
				skip = nil
			}
			pairSet.reset(rows, fn)
			dense, miss := a.dense, a.miss
			for smp := dlo; smp < dhi; smp++ {
				if skip != nil && skip[smp] {
					continue
				}
				raws := fb.Bag(smp)
				dense++
				miss += int64(len(raws))
				var pairNew, nodeNew int32
				for len(raws) > 0 {
					bag := hashed[:min(len(raws), len(hashed))]
					embedding.HashRows(bag, raws[:len(bag)], rows)
					raws = raws[len(bag):]
					for _, r := range bag {
						row := int(r)
						if !fn {
							// Branch-free: every row already in the pair
							// set entered the node set when it was pair-fresh,
							// so adding it there again adds 0.
							pairNew += pairSet.add(row)
							if nodes {
								nodeNew += nodeSet.add(row)
							}
							continue
						}
						key := uint64(fi)<<32 | uint64(row)
						pos, fresh := pairSet.insert(row, int32(len(a.keys)))
						if fresh {
							pairNew++
							a.keys = append(a.keys, key)
						}
						a.expand = append(a.expand, pos)
						if na == nil {
							if nodes {
								nodeSet.add(row)
							}
							continue
						}
						pos, fresh = nodeSet.insert(row, int32(len(na.keys)))
						if fresh {
							nodeNew++
							na.keys = append(na.keys, key)
						}
						a.nodeExpand = append(a.nodeExpand, pos)
					}
				}
				a.newAt[smp-dlo] += pairNew
				if na != nil {
					na.newAt[smp-nodeLo] += nodeNew
				}
			}
			a.dense, a.miss = dense, miss
			a.uniq += int64(pairSet.len())
			if st != nil {
				st.Open(fid, dst).Uniq += float64(pairSet.len())
			}
		}
		if na != nil {
			na.uniq += int64(nodeSet.len())
		}
		if nodes && st != nil {
			st.AddNodeUniq(fid, node, float64(nodeSet.len()))
		}
	}
}

// finishDedup builds the batch's dedup view from the walk's sums, deciding
// every route by price (priceRoutes), and folds the batch's wire traffic into
// the run's counters. The walk's miss and dense sums are the plan's
// pairMissIdx and pairVecs, so the view keeps only what the plan cannot
// derive: the unique-key counts and the decisions they drive.
func (s *System) finishDedup(plan *RoutePlan) *DedupView {
	G := s.Cfg.GPUs
	fn := s.Cfg.Functional
	vb, wvb := float64(s.Cfg.VectorBytes()), float64(s.Cfg.WireVectorBytes())
	dv := &DedupView{
		Uniq:   grid[int64](G, G),
		Wire:   grid[bool](G, G),
		Gather: grid[bool](G, G),
		NewAt:  grid[[]int32](G, G),
		Keys:   grid[[]uint64](G, G),
		Expand: grid[[]int32](G, G),
	}
	var N, per int
	if s.multiNode() {
		N, per = s.cluster.Nodes, s.cluster.GPUsPerNode
		dv.NodeUniq = grid[int64](G, N)
		dv.NodeWire = grid[bool](G, N)
		dv.NodeNewAt = grid[[]int32](G, N)
		dv.NodeKeys = grid[[]uint64](G, N)
		dv.NodeExpand = grid[[]int32](G, G)
	}
	ctr := metrics.DedupCounters{Batches: 1}
	for src := 0; src < G; src++ {
		for dst := 0; dst < G; dst++ {
			a := &s.planScr.pairAcc[src*G+dst]
			dv.Gather[src][dst] = gatherDedupWins(&s.HW.GPU, a.uniq, a.miss, a.dense, vb)
		}
		vecs, idx := plan.ConsumerChunkHits(src, 0, s.Cfg.BatchSize)
		var nodes []nodeAcc
		var staged []bool
		if N > 0 {
			nodes, staged = s.planScr.nodeAcc[src*N:(src+1)*N], dv.NodeWire[src]
		}
		s.priceRoutes(src, s.planScr.pairAcc[src*G:(src+1)*G], nodes, int64(vecs), idx, dv.Gather[src], dv.Wire[src], staged)
		for dst := 0; dst < G; dst++ {
			a := &s.planScr.pairAcc[src*G+dst]
			wire := dv.Wire[src][dst]
			dv.Uniq[src][dst] = a.uniq
			dv.Gather[src][dst] = dv.Gather[src][dst] && !wire
			dv.NewAt[src][dst] = a.newAt
			if fn && wire {
				dv.Keys[src][dst] = a.keys
				dv.Expand[src][dst] = a.expand
			}
			if src == dst {
				continue
			}
			ctr.EligibleIdx += a.miss
			ctr.EligibleVecs += a.dense
			ctr.UniqueRows += a.uniq
			if wire {
				ctr.WireRows += a.uniq
				ctr.WireSavedBytes += float64(float64(a.dense-a.uniq) * wvb)
			} else {
				ctr.WireVecs += a.dense
			}
		}
		for node := 0; node < N; node++ {
			if node == s.nodeOf(src) {
				continue
			}
			na := &s.planScr.nodeAcc[src*N+node]
			dv.NodeUniq[src][node] = na.uniq
			dv.NodeNewAt[src][node] = na.newAt
			if fn && dv.NodeWire[src][node] {
				dv.NodeKeys[src][node] = na.keys
				for dst := node * per; dst < (node+1)*per; dst++ {
					dv.NodeExpand[src][dst] = s.planScr.pairAcc[src*G+dst].nodeExpand
				}
			}
		}
	}
	s.dedupStats = s.dedupStats.Add(ctr)
	return dv
}
