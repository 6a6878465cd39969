package retrieval

import (
	"pgasemb/internal/cache"
	"pgasemb/internal/embedding"
	"pgasemb/internal/metrics"
	"pgasemb/internal/placement"
	"pgasemb/internal/sim"
	"pgasemb/internal/sparse"
)

// Route-plan compilation. One host-side pass per batch classifies its keys:
// which output vectors their consumers read without the owner (cache hits
// and hot-table mirror reads), which (owner, consumer) pairs ship unique rows
// instead of dense pooled vectors, which pairs ride node-level staging, and
// which replica serves each pair. NextBatchData runs the pass, and backends
// and the transfer executor only ask the plan how a pair is routed, so timing
// and functional execution follow the same decisions by construction, and a
// new classification feature is wired once, here.
//
// Each System holds ONE plan: a record set the compile walk refills in place
// for every batch. Its readers are done with a batch's plan before the next
// compile: backends read it until walkDone, the lockstep drive compiles the
// next batch only after every GPU has left its body, and a serving flight of
// the same shape pulls only after the previous flight's handover. So the
// records never outlive their batch, and a steady-state compile allocates
// nothing.
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

// RoutePlan is the run's compiled classification of its live batch: one
// record per (owner, consumer) pair and per (owner, node), the residency
// hits, the replica serve column and the pooled-index prefixes, behind the
// per-pair route queries every backend shares. routePlan sizes it on the
// run's first batch; every later compile rewrites it in place.
type RoutePlan struct {
	sys *System

	// pairs[o*GPUs+c] is pair (o, c)'s record: the dedup walk's counts,
	// first-seen spread and functional keys, and the priced wire and gather
	// decisions (pairAcc). All zero unless Config.Dedup.
	pairs []pairAcc
	// nodes[o*Nodes+n] is owner o's record for destination node n
	// (nodeAcc). Only remote nodes of a multi-node dedup run are written.
	nodes []nodeAcc

	// resident reports whether the batch ran the residency step (a hot-row
	// cache or a live mirror set). Without it no vector is a hit, and the
	// hit prefixes and bitmap hold an older batch's.
	resident bool
	// hitVecs[o][smp] and hitIdx[o][smp] count shard o's hit vectors and
	// their pooled indices over samples [0, smp) (len BatchSize+1): the
	// prefix sums behind OwnerChunkHits. Sized by the first resident batch.
	hitVecs, hitIdx [][]int64
	// hit[o][fi*BatchSize+smp] marks the vector (owner o, o-local table fi,
	// sample smp) as a hit at smp's consumer. Vectors of o's own minibatch
	// never are (they are local either way). Functional runs only: a timing
	// walk keeps one table's hits at a time.
	hit [][]bool

	// serve[o*GPUs+c] is the GPU that serves shard o's vectors to consumer
	// c (nil unless Config.Replicas > 1), chosen from the shard's healthy
	// replicas — the consumer itself when it holds a mirror, otherwise the
	// replica with the best degradation-aware path to the consumer.
	// Computed host-side per batch from the fault schedule, so
	// recompilation routes around links that fault mid-run. Backends read
	// it only through ServeGPU.
	serve []int

	// pooled is the batch's pooled-index arithmetic: shard o's
	// BatchSize+1 entries start at o*(BatchSize+1) (pooledOf), and entry
	// smp counts the indices of the shard's tables over samples [0, smp),
	// under the placement the batch executes. Every pooled-index total the
	// timing model needs is a difference of two entries, so no timing path
	// reads the batch or its pooling factors after compile.
	pooled []int64

	// barrier is the post-quiet rendezvous one-sided backends await before
	// expanding (nil unless Config.Dedup on more than one GPU): quiet only
	// drains a PE's OWN pipes, so a consumer must not expand until every
	// owner has finished streaming. The baseline never awaits it (its
	// collective is already a global synchronisation point).
	barrier *sim.Barrier

	// spread backs the pairs' and the nodes' first-seen spreads.
	spread []int32
}

// pair returns pair (o, c)'s record.
func (p *RoutePlan) pair(o, c int) *pairAcc { return &p.pairs[o*p.sys.Cfg.GPUs+c] }

// node returns owner o's record for destination node n.
func (p *RoutePlan) node(o, n int) *nodeAcc { return &p.nodes[o*p.sys.cluster.Nodes+n] }

// pooledOf returns shard o's pooled-index prefixes.
func (p *RoutePlan) pooledOf(o int) []int64 {
	n := p.sys.Cfg.BatchSize + 1
	return p.pooled[o*n : (o+1)*n]
}

// localIndexTotal returns the pooled-index total of shard o's tables over
// samples [lo, hi).
func (p *RoutePlan) localIndexTotal(o, lo, hi int) int64 {
	return rangeSum(p.pooledOf(o), lo, hi)
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
	return p.serve[o*p.sys.Cfg.GPUs+c]
}

// pairVecs returns the pooled vectors shard o owes consumer c this batch:
// c's minibatch times o's tables, minus the vectors c reads from its own
// cache or hot-table mirrors.
func (p *RoutePlan) pairVecs(o, c int) int {
	lo, hi := p.sys.Minibatch(c)
	hits, _ := p.OwnerChunkHits(o, lo, hi)
	return (hi-lo)*p.sys.LocalTables(o) - hits
}

// pairItems returns the rows pair (o, c), of route cls, lands at its
// destination this batch: its unique rows on a wire route, and on a node-wire
// route the whole node-staged row set, which lands on the node's stage-lane
// GPU only (the node's other pairs land nothing); its pooled vectors
// otherwise.
func (p *RoutePlan) pairItems(cls PairClass, o, c int) int {
	switch cls {
	case RouteWire:
		return int(p.pair(o, c).uniq)
	case RouteNodeWire:
		if node := p.sys.nodeOf(c); p.sys.stageGPU(o, node) == c {
			return int(p.node(o, node).uniq)
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
	_, hits := p.OwnerChunkHits(o, lo, hi)
	return p.localIndexTotal(o, lo, hi) - hits
}

// Class returns the (owner src → consumer dst) route under a one-sided
// transport, where node-level wire dedup supersedes the pair-level decision:
// dst's whole node receives src's unique rows once.
func (p *RoutePlan) Class(src, dst int) PairClass {
	if p.node(src, p.sys.nodeOf(dst)).wire {
		return RouteNodeWire
	}
	return p.CollectiveClass(src, dst)
}

// CollectiveClass returns the pair's route under a pair-addressed collective:
// the all-to-all's segments are addressed per (owner, consumer), so node-level
// staging never applies and the pair-level wire decision stands.
func (p *RoutePlan) CollectiveClass(src, dst int) PairClass {
	switch {
	case src == dst:
		return RouteLocal
	case p.pair(src, dst).wire:
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
func (p *RoutePlan) GatherDedup(src, dst int) bool { return p.pair(src, dst).gather }

// NewKeysIn returns the pair's unique keys first seen in sample range
// [s0, s1), clamped to the consumer's minibatch. Wire and gather-dedup routes
// only.
func (p *RoutePlan) NewKeysIn(src, dst, s0, s1 int) int {
	lo, hi := p.sys.Minibatch(dst)
	if s0 <= lo && s1 >= hi {
		return int(p.pair(src, dst).uniq) // the whole minibatch's spread
	}
	return firstSeenIn(p.pair(src, dst).newAt, lo, s0, s1)
}

// NodeNewKeysIn returns owner src's node-level unique keys first seen in
// sample range [s0, s1), clamped to the node's sample range. Node-wire routes
// only.
func (p *RoutePlan) NodeNewKeysIn(src, node, s0, s1 int) int {
	lo, _ := p.sys.nodeSampleRange(node)
	return firstSeenIn(p.node(src, node).newAt, lo, s0, s1)
}

// OwnerChunkHits returns the hit vectors (and pooled indices) of shard o
// within sample range [s0, s1) — vectors their consumers read without the
// owner, so no server gathers or sends them: the fused kernel's per-chunk
// discount.
func (p *RoutePlan) OwnerChunkHits(o, s0, s1 int) (vecs int, idx int64) {
	if !p.resident {
		return 0, 0
	}
	return int(rangeSum(p.hitVecs[o], s0, s1)), rangeSum(p.hitIdx[o], s0, s1)
}

// ConsumerChunkHits returns the hit vectors (and pooled indices) that
// consumer g pools locally — from its cache or its hot-table mirrors — for
// its minibatch samples within [s0, s1).
func (p *RoutePlan) ConsumerChunkHits(g, s0, s1 int) (vecs int, idx int64) {
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

// planScratch is the compile walk's working state, which never outlives one
// compile: the row sets, one minibatch range's hashed rows, a timing run's
// one table of bags and of hits, and the pooling pass's owner map. The walk
// accumulates straight into the plan's records. Simulated processes never
// run concurrently, so compiling needs no synchronisation.
type planScratch struct {
	pairSet rowSet            // one (consumer, table)'s unique rows
	nodeSet rowSet            // one (remote node, table)'s unique rows
	rows    []int32           // residency step's hashed references of one minibatch range
	hit     []bool            // timing mode's residency hits of one table, by sample
	bag     sparse.FeatureBag // timing mode's one table, drawn in plan order
	ownerOf []int             // owner GPU of every feature, for the pooling pass
}

// routePlan returns the run's route plan, sizing it on the run's first batch:
// a record for every pair and every (owner, node), the pooled-index
// prefixes, the serve column under replication and, under dedup, the
// expansion barrier and the first-seen spreads, which one backing array
// holds for every pair and every remote node.
func (s *System) routePlan() *RoutePlan {
	p := &s.route
	if p.sys != nil {
		return p
	}
	G, B, N := s.Cfg.GPUs, s.Cfg.BatchSize, s.cluster.Nodes
	*p = RoutePlan{
		sys:    s,
		pairs:  make([]pairAcc, G*G),
		nodes:  make([]nodeAcc, G*N),
		pooled: make([]int64, G*(B+1)),
	}
	if s.Cfg.Replicas > 1 {
		p.serve = make([]int, G*G)
	}
	if !s.Cfg.Dedup {
		return p
	}
	if G > 1 {
		p.barrier = sim.NewBarrier(s.Env, G)
	}
	// Each owner's pair spreads cover the batch once, and so do its remote
	// nodes' on a multi-node machine.
	spread := make([]int32, G*B*min(N, 2))
	p.spread = spread
	for src := 0; src < G; src++ {
		for dst := 0; dst < G; dst++ {
			lo, hi := s.Minibatch(dst)
			p.pair(src, dst).newAt, spread = spread[:hi-lo:hi-lo], spread[hi-lo:]
		}
		for node := 0; node < N; node++ {
			if node != s.nodeOf(src) {
				lo, hi := s.nodeSampleRange(node)
				p.node(src, node).newAt, spread = spread[:hi-lo:hi-lo], spread[hi-lo:]
			}
		}
	}
	return p
}

// drawPooling opens the next batch with the generator's pooling pass and
// fills the plan's per-shard pooled-index prefix sums under the current
// placement: shard o's entry smp counts its indices over samples [0, smp).
// Each feature's factors are added into its owner's shard as they are drawn.
func (s *System) drawPooling() {
	plan := s.routePlan()
	clear(plan.pooled)
	owner := scratchSlice(&s.planScr.ownerOf, s.Cfg.TotalTables)
	for o, fids := range s.Plan {
		for _, fid := range fids {
			owner[fid] = o
		}
	}
	s.gen.NextPoolingSums(func(f int) []int64 { return plan.pooledOf(owner[f])[1:] })
	for o := range s.Plan {
		scan(plan.pooledOf(o))
	}
}

// scan turns per-sample counts into prefix sums, in place.
func scan(row []int64) {
	for smp := 1; smp < len(row); smp++ {
		row[smp] += row[smp-1]
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

// compileRoutePlan runs the classifier passes for the batch drawPooling
// opened, rewriting the run's plan in place, and attaches the plan to bd.
// Every pass that reads indices runs in one walk over the tables in plan
// order: for each table, the residency step for every consumer, then the
// dedup step, while its bags are in cache. The bags come from bd.Sparse when
// the batch is materialised (functional runs and PlanCompileLoop); a timing
// run draws each table as the walk reaches it (Generator.Feature). With a
// placement controller attached the walk also records its statistics
// (observeTable, and the residency and dedup steps' per-table counts). Runs
// that read no indices and record nothing skip the walk.
func (s *System) compileRoutePlan(bd *BatchData) {
	plan := s.routePlan()
	bd.Plan = plan
	// Residency first: vectors a consumer reads without their owner never
	// enter the dedup key sets, so the dedup step sees only the owner-served
	// misses.
	plan.resident = s.cacheEnabled() || s.hotMirrorActive()
	if plan.resident {
		plan.beginResidency()
	}
	if s.Cfg.Dedup { // single-GPU systems too: diagonal gather dedup
		plan.beginDedup()
	}
	st := s.placeStats()
	if st != nil {
		st.BeginBatch()
	}
	if plan.resident || s.Cfg.Dedup || st != nil {
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
				if plan.resident {
					hit = s.residencyTable(bd, o, fi, fb)
				}
				if s.Cfg.Dedup {
					s.dedupTable(o, fi, fb, hit)
				}
			}
		}
	}
	if plan.resident {
		for o := range plan.hitVecs {
			scan(plan.hitVecs[o])
			scan(plan.hitIdx[o])
		}
	}
	if s.Cfg.Dedup {
		s.finishDedup()
	}
	if st != nil {
		st.EndBatch()
	}
	if s.Cfg.Replicas > 1 {
		s.computeServe(s.batchSeq)
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

// beginResidency readies the plan for a resident batch: zeroed hit counts,
// and in a functional run a hit bitmap sized to every owner's tables under
// the current placement (residencyTable clears each table's hits as it
// reaches it). The first resident batch sizes the prefixes.
func (p *RoutePlan) beginResidency() {
	s := p.sys
	G, B := s.Cfg.GPUs, s.Cfg.BatchSize
	if p.hitVecs == nil {
		hits := grid[int64](2*G, B+1)
		p.hitVecs, p.hitIdx = hits[:G], hits[G:]
		if s.Cfg.Functional {
			p.hit = make([][]bool, G)
		}
	}
	for o := 0; o < G; o++ {
		clear(p.hitVecs[o])
		clear(p.hitIdx[o])
	}
	for o := range p.hit {
		scratchSlice(&p.hit[o], s.LocalTables(o)*B)
	}
}

// isHit reports whether the vector (owner o, o-local table fi, sample smp)
// is read by its consumer without the owner. Functional runs only.
func (p *RoutePlan) isHit(o, fi, smp int) bool {
	return p.resident && p.hit[o][fi*p.sys.Cfg.BatchSize+smp]
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
	plan := &s.route
	fid := fb.FeatureID
	hit := scratchSlice(&s.planScr.hit, B)
	if cfg.Functional {
		hit = plan.hit[p][fi*B : (fi+1)*B]
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
			plan.hitVecs[p][smp+1]++
			plan.hitIdx[p][smp+1] += int64(len(bag))
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
// adds into the plan's pair and (owner, node) records; finishDedup decides
// every route from the sums. The walk steps the tables in plan order, so
// functional key lists come out table-major in plan order. A key is (table,
// hashed row), so every count a record holds is a sum over per-table key
// sets, which no step order could change.
//
// pairAcc is one (owner, consumer) pair's record. The walk accumulates its
// classification over the owner's tables; priceRoutes then holds the pair's
// pricing state in it while deciding its owner's routes, and leaves the
// decisions. The diagonal describes each GPU's local (own minibatch)
// lookups, where only gather dedup can apply. The walk's miss and dense sums
// are the plan's pairMissIdx and pairVecs.
type pairAcc struct {
	// miss counts the pair's cache-missed pooled references and dense its
	// cache-missed pooled vectors (empty bags count: the dense scheme ships
	// their zero vectors).
	miss, dense int64
	// uniq counts the distinct (table, hashed-row) keys among the pair's
	// miss references.
	uniq int64
	// newAt[smp-lo] counts the pair's keys FIRST seen at consumer sample
	// smp, where lo starts the consumer's minibatch. It sums to uniq and
	// lets the chunked fused kernel apportion unique-row work per chunk.
	newAt []int32
	// keys lists the pair's unique keys (owner-local table index <<32 |
	// hashed row) table-major: tables in plan order, each table's keys in
	// first-seen sample order. expand is the inverse-expansion map: for
	// every miss reference in table-major order (tables in plan order, then
	// samples ascending, bag order), the position of its row in keys.
	// nodeExpand is the same map into the consumer node's key list (remote
	// nodes only). Functional runs only; the executor reads them on wire
	// and node-wire routes.
	keys       []uint64
	expand     []int32
	nodeExpand []int32

	// wire marks a pair whose priced route ships its unique rows instead of
	// its dense vectors (off-diagonal only); gather a non-wire pair whose
	// staged unique-row gather beats the dense gather (timing model only).
	wire, gather bool

	terms routeTerms   // the pair's current route terms
	link  int64        // wire vectors of the owner link the consumer names (0 from beginDedup)
	after sim.Duration // slowest still-dense link from the consumer on
}

// nodeAcc is one (owner, remote node) record: the union of the owner's pair
// key sets over the node's consumers. When a node-level wire win holds, each
// unique row crosses the NIC once per node — staged on one lane GPU and
// redistributed over NVLink — instead of once per (owner, consumer) pair or,
// dense, once per reference.
type nodeAcc struct {
	// uniq counts the distinct keys among the owner's miss references into
	// the node; newAt spreads them over the node's sample range, each key at
	// the earliest node sample referencing it.
	uniq  int64
	newAt []int32
	// keys is the functional key list (table-major, as pairAcc.keys).
	keys []uint64
	// wire marks a node whose priced route stages the owner's unique rows
	// instead of routing the node's pairs one by one.
	wire bool
}

// beginDedup readies the plan's records for the dedup walk: every count,
// spread and decision zeroed, and the functional key lists and expansion
// maps emptied, keeping their storage.
func (p *RoutePlan) beginDedup() {
	clear(p.spread)
	for i := range p.pairs {
		a := &p.pairs[i]
		*a = pairAcc{newAt: a.newAt, keys: a.keys[:0], expand: a.expand[:0], nodeExpand: a.nodeExpand[:0]}
	}
	for i := range p.nodes {
		na := &p.nodes[i]
		*na = nodeAcc{newAt: na.newAt, keys: na.keys[:0]}
	}
}

// dedupTable is the walk's step: it runs owner src's local table fi, whose
// references fb holds, through the row sets and adds the results into the
// plan's records. hit, when non-nil, marks the table's vectors remote
// consumers read without the owner (indexed by sample); they never enter
// the key sets.
func (s *System) dedupTable(src, fi int, fb *sparse.FeatureBag, hit []bool) {
	G := s.Cfg.GPUs
	fn := s.Cfg.Functional
	rows := s.Cfg.Rows
	pairSet, nodeSet := &s.planScr.pairSet, &s.planScr.nodeSet
	accs := s.route.pairs[src*G : (src+1)*G]
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
			na = s.route.node(src, node)
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

// finishDedup decides every route of the batch by price from the walk's
// sums: each pair's gather dedup (gatherDedupWins), then each owner's wire
// and node-wire routes (priceRoutes), which rule out gather dedup on a wire
// pair. It folds the batch's wire traffic into the run's counters.
func (s *System) finishDedup() {
	plan := &s.route
	G, N := s.Cfg.GPUs, s.cluster.Nodes
	vb, wvb := float64(s.Cfg.VectorBytes()), float64(s.Cfg.WireVectorBytes())
	ctr := metrics.DedupCounters{Batches: 1}
	for src := 0; src < G; src++ {
		accs := plan.pairs[src*G : (src+1)*G]
		for dst := range accs {
			a := &accs[dst]
			a.gather = gatherDedupWins(&s.HW.GPU, a.uniq, a.miss, a.dense, vb)
		}
		vecs, idx := plan.ConsumerChunkHits(src, 0, s.Cfg.BatchSize)
		s.priceRoutes(src, accs, plan.nodes[src*N:(src+1)*N], int64(vecs), idx)
		for dst := range accs {
			a := &accs[dst]
			a.gather = a.gather && !a.wire
			if src == dst {
				continue
			}
			ctr.EligibleIdx += a.miss
			ctr.EligibleVecs += a.dense
			ctr.UniqueRows += a.uniq
			if a.wire {
				ctr.WireRows += a.uniq
				ctr.WireSavedBytes += float64(float64(a.dense-a.uniq) * wvb)
			} else {
				ctr.WireVecs += a.dense
			}
		}
	}
	s.dedupStats = s.dedupStats.Add(ctr)
}
