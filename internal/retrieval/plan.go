package retrieval

import (
	"pgasemb/internal/cache"
	"pgasemb/internal/embedding"
	"pgasemb/internal/metrics"
	"pgasemb/internal/sim"
	"pgasemb/internal/sparse"
	"pgasemb/internal/workload"
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
// whole-machine decisions (e.g. the hybrid backend's per-pair transport
// choice) without any cross-process agreement protocol.

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
}

// ServeGPU returns the GPU serving shard o to consumer c (o itself without
// replication).
func (p *RoutePlan) ServeGPU(o, c int) int {
	if p.serve == nil {
		return o
	}
	return p.serve[o][c]
}

// serves reports whether GPU server serves consumer c at least one shard.
// Without replication every GPU serves every consumer its own shard.
func (p *RoutePlan) serves(server, c int) bool {
	for o := 0; o < p.sys.Cfg.GPUs; o++ {
		if p.ServeGPU(o, c) == server {
			return true
		}
	}
	return false
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

// NodeWire reports whether owner src ships node-deduplicated rows to node.
func (p *RoutePlan) NodeWire(src, node int) bool {
	dv := p.Dedup
	return dv != nil && dv.NodeWire != nil && dv.NodeWire[src][node]
}

// CollectiveVecs returns how many vectors owner src contributes to consumer
// dst's receive segment of the pair-addressed all-to-all: the pair's unique
// rows on a wire route, its cache-missed pooled vectors otherwise (the whole
// contiguous local segment on the diagonal).
func (p *RoutePlan) CollectiveVecs(src, dst int) int {
	if p.CollectiveClass(src, dst) == RouteWire {
		return int(p.Dedup.Uniq[src][dst])
	}
	return p.pairVecs(src, dst)
}

// segmentVecs returns the vectors GPU server ships into consumer dst's
// all-to-all segment: CollectiveVecs summed over every shard the plan has
// server serving dst that route exchanges (all of them when route is nil).
// Without replication that is CollectiveVecs(server, dst), or zero.
func (p *RoutePlan) segmentVecs(server, dst int, route *transport) int {
	vecs := 0
	for o := 0; o < p.sys.Cfg.GPUs; o++ {
		if p.ServeGPU(o, dst) == server && route.exchanged(o, dst) {
			vecs += p.CollectiveVecs(o, dst)
		}
	}
	return vecs
}

// CollectiveCodecVecs returns the vectors GPU g encodes into and decodes out
// of the pair-addressed all-to-all when a wire codec is active: every
// off-diagonal segment it contributes (sent) and receives (recv). Segments a
// GPU serves itself — its own minibatch, mirror-local reads — stay local HBM
// traffic and are never encoded.
func (p *RoutePlan) CollectiveCodecVecs(g int) (sent, recv int64) {
	for peer := 0; peer < p.sys.Cfg.GPUs; peer++ {
		if peer == g {
			continue
		}
		sent += int64(p.segmentVecs(g, peer, nil))
		recv += int64(p.segmentVecs(peer, g, nil))
	}
	return sent, recv
}

// OneSidedCodecVecs returns the vectors GPU g encodes (as a server issuing
// one-sided stores) and decodes (as a consumer, before expand/unpack) when a
// wire codec is active, over every (shard, consumer) pair served across the
// wire. Node-wire routes ship each node-deduplicated row once per
// destination node (counted once on the send side), and every consumer on
// the node decodes the full staged set its expansion references.
func (p *RoutePlan) OneSidedCodecVecs(g int) (sent, recv int64) {
	s := p.sys
	for o := 0; o < s.Cfg.GPUs; o++ {
		for c := 0; c < s.Cfg.GPUs; c++ {
			if c != g && p.ServeGPU(o, c) == g && p.Class(o, c) != RouteNodeWire {
				sent += int64(p.CollectiveVecs(o, c))
			}
		}
		switch {
		case p.ServeGPU(o, g) == g: // served locally, never on the wire
		case p.Class(o, g) == RouteNodeWire:
			recv += p.Dedup.NodeUniq[o][s.nodeOf(g)]
		default:
			recv += int64(p.CollectiveVecs(o, g))
		}
	}
	if dv := p.Dedup; dv != nil && dv.NodeWire != nil {
		for node, wire := range dv.NodeWire[g] {
			if wire {
				sent += dv.NodeUniq[g][node]
			}
		}
	}
	return sent, recv
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
	return p.Dedup.newKeysIn(p.sys, src, dst, s0, s1)
}

// NodeNewKeysIn returns owner src's node-level unique keys first seen in
// sample range [s0, s1), clamped to the node's sample range. Node-wire routes
// only.
func (p *RoutePlan) NodeNewKeysIn(src, node, s0, s1 int) int {
	return p.sys.nodeNewKeysIn(p.Dedup, src, node, s0, s1)
}

// OwnerChunkHits returns the hit vectors (and pooled indices) of shard o
// within sample range [s0, s1) — vectors their consumers read without the
// owner, so no server gathers or sends them: the fused kernel's per-chunk
// discount.
func (p *RoutePlan) OwnerChunkHits(sum *workload.Summary, o, s0, s1 int) (vecs int, idx int64) {
	view := p.Cache
	if view == nil {
		return 0, 0
	}
	B := p.sys.Cfg.BatchSize
	for fi, fid := range p.sys.Plan[o] {
		hitRow := view.Hit[o][fi*B:]
		pool := sum.Pooling[fid*B:]
		for smp := s0; smp < s1; smp++ {
			if hitRow[smp] {
				vecs++
				idx += int64(pool[smp])
			}
		}
	}
	return vecs, idx
}

// ConsumerChunkHits returns the hit vectors (and pooled indices) that
// consumer g pools locally — from its cache or its hot-table mirrors — for
// its minibatch samples within [s0, s1).
func (p *RoutePlan) ConsumerChunkHits(sum *workload.Summary, g, s0, s1 int) (vecs int, idx int64) {
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
		v, i := p.OwnerChunkHits(sum, o, s0, s1)
		vecs += v
		idx += i
	}
	return vecs, idx
}

// planScratch is the per-run arena for plan COMPILATION: working state that
// never outlives one compileRoutePlan call (per-batch outputs — the views,
// key lists, expansion maps, staging buffers — must stay per-batch
// allocations, because a run pre-generates every batch before executing).
// NextBatchData runs host-side on one goroutine, so no synchronisation.
type planScratch struct {
	pairIdx    keyIndex             // one (owner, consumer) pair's unique keys
	nodeIdx    keyIndex             // one (owner, remote node)'s unique keys
	fbs        []*sparse.FeatureBag // one owner's feature bags
	rowsPer    []int                // one owner's table row counts
	expTmp     [][]int32            // one node's per-consumer expansions into its key set
	rowScratch []int32              // residency classifier's hashed-bag scratch
	batch      sparse.Batch         // timing mode's input batch, redrawn every batch
}

// compileRoutePlan runs the classifier passes for one batch and attaches the
// resulting plan to bd.
func (s *System) compileRoutePlan(bd *BatchData) {
	plan := &RoutePlan{sys: s}
	bd.Plan = plan
	if s.cacheEnabled() || s.hotMirrorActive() {
		// Residency first: vectors a consumer reads without their owner
		// never enter the dedup key sets, so the dedup pass below sees only
		// the owner-served misses.
		plan.Cache = s.classifyResidency(bd)
	}
	if s.Cfg.Dedup { // single-GPU systems too: diagonal gather dedup
		plan.Dedup = s.classifyDedup(bd)
		s.attachDedup(bd, plan.Dedup)
	}
	if s.Cfg.Replicas > 1 {
		plan.serve = s.computeServe(s.batchSeq + s.faultOffset)
	}
}

// holdsReplica reports whether consumer c holds a copy of shard o: its own
// shard, or one of the mirrors Config.Replicas places on GPUs (o+k) mod GPUs
// for k < Replicas. The route plan always serves such a pair locally.
func (s *System) holdsReplica(c, o int) bool {
	G := s.Cfg.GPUs
	return c == o || ((c-o)%G+G)%G < s.Cfg.Replicas
}

// classifyResidency answers, once per batch, which remote-owned output
// vectors each consumer reads without their owner. It walks the batch in the
// cache's canonical order (consumer, owner, local table, sample) and decides
// every non-empty vector once:
//
//   - a shard the consumer holds a replica of is skipped: the route plan
//     serves it locally (ServeGPU), and it never probes the cache;
//   - a vector of a mirrored hot table is a guaranteed hit;
//   - anything else probes the consumer's hot-row cache: a hit if every
//     hashed row of its bag is resident, otherwise the whole bag is admitted
//     (lazy refill, off the critical path alongside the miss fetch the batch
//     pays anyway).
//
// In functional mode hit vectors are pooled into bd.Final immediately —
// mirrored ones straight off the owner's table (the mirror copy is
// bit-identical), cached ones from the cache contents as of this
// classification, so later evictions cannot corrupt earlier batches. Every
// backend's hit-skipping path then serves cache and mirror reads alike.
func (s *System) classifyResidency(bd *BatchData) *CacheView {
	cfg := s.Cfg
	B := cfg.BatchSize
	view := &CacheView{
		Hit:      make([][]bool, cfg.GPUs),
		WireVecs: make([][]int, cfg.GPUs),
		WireIdx:  make([][]int64, cfg.GPUs),
	}
	for p := 0; p < cfg.GPUs; p++ {
		view.Hit[p] = make([]bool, len(s.Plan[p])*B)
		view.WireVecs[p] = make([]int, cfg.GPUs)
		view.WireIdx[p] = make([]int64, cfg.GPUs)
	}
	cached, mirrors := s.cacheEnabled(), s.hotMirrorActive()
	if cached {
		s.ensureCaches()
	}
	rowScratch := s.planScr.rowScratch
	defer func() { s.planScr.rowScratch = rowScratch }()
	for g := 0; g < cfg.GPUs; g++ {
		var c *cache.Cache
		if cached {
			c = s.Caches.GPU(g)
		}
		lo, hi := s.Minibatch(g)
		for p := 0; p < cfg.GPUs; p++ {
			if s.holdsReplica(g, p) {
				continue
			}
			for fi, fid := range s.Plan[p] {
				mirrored := mirrors && s.hotMirror[fid]
				if !mirrored && c == nil {
					continue
				}
				rows := cfg.tableRows(fid)
				fb := bd.Sparse.FeatureByID(fid)
				var tbl *embedding.Table
				var w []float32
				if cfg.Functional {
					tbl = s.colls[p].Tables[fi]
					w = tbl.Weights.Data()
				}
				for smp := lo; smp < hi; smp++ {
					bag := fb.Bag(smp)
					if len(bag) == 0 {
						continue // zero vector; nothing to gather or send
					}
					if !mirrored {
						rowScratch = rowScratch[:0]
						hit := true
						for _, raw := range bag {
							row := int32(embedding.HashIndex(raw, rows))
							rowScratch = append(rowScratch, row)
							if !c.Touch(cache.Key{Feature: int32(fid), Row: row}) {
								hit = false
							}
						}
						if !hit {
							for _, row := range rowScratch {
								var vec []float32
								if cfg.Functional {
									vec = w[int(row)*cfg.Dim : (int(row)+1)*cfg.Dim]
								}
								c.Admit(cache.Key{Feature: int32(fid), Row: row}, vec)
							}
							continue
						}
					}
					view.Hit[p][fi*B+smp] = true
					view.WireVecs[p][g]++
					view.WireIdx[p][g] += int64(len(bag))
					if !cfg.Functional {
						continue
					}
					off := ((smp-lo)*cfg.TotalTables + fid) * cfg.Dim
					out := bd.Final[g].Data()[off : off+cfg.Dim]
					if mirrored {
						tbl.LookupPooled(bag, cfg.Pooling, out)
					} else {
						poolFromCache(c, int32(fid), rowScratch, cfg.Pooling, out)
					}
				}
			}
		}
	}
	return view
}

// classifyDedup scans the materialised batch and builds the dedup view,
// folding the batch's savings into the run's counters. It walks each owner's
// references once, in canonical order: consumers ascending, then each
// consumer's samples ascending, the owner's local tables in plan order, bag
// order. Every miss reference feeds the pair's key index, reset per
// consumer, and on multi-node machines also the key index of the consumer's
// node when that node is remote, reset at the node's first consumer. A
// node's minibatches are contiguous, so the node set sees exactly the
// consumer-ascending union a separate per-node walk would.
//
// The node level is the second classification tier: a node-level wire win
// means the owner ships each unique row across the NIC once for the whole
// node, superseding the pair-level decision for those pairs (one-sided
// transports only — a pair-addressed collective's segments cannot share
// rows across consumers).
func (s *System) classifyDedup(bd *BatchData) *DedupView {
	cfg := s.Cfg
	B, G := cfg.BatchSize, cfg.GPUs
	vb := float64(cfg.VectorBytes())
	view := bd.Plan.Cache
	dv := &DedupView{
		MissIdx:   make([][]int64, G),
		Uniq:      make([][]int64, G),
		DenseVecs: make([][]int64, G),
		Wire:      make([][]bool, G),
		Gather:    make([][]bool, G),
		NewAt:     make([][][]int32, G),
		Keys:      make([][][]uint64, G),
		Expand:    make([][][]int32, G),
	}
	multi := s.multiNode()
	per := 1
	if multi {
		per = s.cluster.GPUsPerNode
		dv.NodeUniq = make([][]int64, G)
		dv.NodeDense = make([][]int64, G)
		dv.NodeWire = make([][]bool, G)
		dv.NodeNewAt = make([][][]int32, G)
		dv.NodeKeys = make([][][]uint64, G)
		dv.NodeExpand = make([][][]int32, G)
	}
	ctr := metrics.DedupCounters{Batches: 1}
	pairIdx, nodeIdx := &s.planScr.pairIdx, &s.planScr.nodeIdx
	nodeExp := scratchSlice(&s.planScr.expTmp, per)
	for src := 0; src < G; src++ {
		fg := len(s.Plan[src])
		dv.MissIdx[src] = make([]int64, G)
		dv.Uniq[src] = make([]int64, G)
		dv.DenseVecs[src] = make([]int64, G)
		dv.Wire[src] = make([]bool, G)
		dv.Gather[src] = make([]bool, G)
		dv.NewAt[src] = make([][]int32, G)
		dv.Keys[src] = make([][]uint64, G)
		dv.Expand[src] = make([][]int32, G)
		if multi {
			N := s.cluster.Nodes
			dv.NodeUniq[src] = make([]int64, N)
			dv.NodeDense[src] = make([]int64, N)
			dv.NodeWire[src] = make([]bool, N)
			dv.NodeNewAt[src] = make([][]int32, N)
			dv.NodeKeys[src] = make([][]uint64, N)
			dv.NodeExpand[src] = make([][]int32, G)
		}
		fbs, rowsPer := s.ownerScratch(bd, src)
		srcNode := s.nodeOf(src)
		// The remote node the walk is inside: its sample base and the
		// classification accumulated over its consumers so far.
		var nodeLo int
		var nodeNewAt []int32
		var nodeKeys []uint64
		var nodeDense int64
		for dst := 0; dst < G; dst++ {
			dlo, dhi := s.Minibatch(dst)
			node := s.nodeOf(dst)
			li := dst - node*per // dst's lane on its node
			remote := multi && node != srcNode
			if remote && li == 0 {
				nodeIdx.reset()
				var nodeHi int
				nodeLo, nodeHi = s.nodeSampleRange(node)
				nodeNewAt = make([]int32, nodeHi-nodeLo)
				nodeKeys, nodeDense = nil, 0
			}
			pairIdx.reset()
			newAt := make([]int32, dhi-dlo)
			var missIdx, denseVecs int64
			var keys []uint64
			var expand, nodeExpand []int32
			for smp := dlo; smp < dhi; smp++ {
				var newHere, nodeNewHere int32
				for fi := 0; fi < fg; fi++ {
					if src != dst && view != nil && view.Hit[src][fi*B+smp] {
						continue
					}
					denseVecs++
					rows := rowsPer[fi]
					for _, raw := range fbs[fi].Bag(smp) {
						key := uint64(fi)<<32 | uint64(uint32(embedding.HashIndex(raw, rows)))
						pos, fresh := pairIdx.insert(key)
						if fresh {
							newHere++
							if cfg.Functional {
								keys = append(keys, key)
							}
						}
						missIdx++
						if cfg.Functional {
							expand = append(expand, pos)
						}
						if !remote {
							continue
						}
						pos, fresh = nodeIdx.insert(key)
						if fresh {
							nodeNewHere++
							if cfg.Functional {
								nodeKeys = append(nodeKeys, key)
							}
						}
						if cfg.Functional {
							nodeExpand = append(nodeExpand, pos)
						}
					}
				}
				newAt[smp-dlo] = newHere
				if remote {
					nodeNewAt[smp-nodeLo] = nodeNewHere
				}
			}
			uniq := int64(pairIdx.len())
			wire := src != dst && uniq < denseVecs
			dv.MissIdx[src][dst] = missIdx
			dv.Uniq[src][dst] = uniq
			dv.DenseVecs[src][dst] = denseVecs
			dv.Wire[src][dst] = wire
			dv.Gather[src][dst] = !wire && s.Devs[src].GatherDedupWins(uniq, missIdx)
			dv.NewAt[src][dst] = newAt
			if cfg.Functional && wire {
				dv.Keys[src][dst] = keys
				dv.Expand[src][dst] = expand
			}
			if src != dst {
				ctr.EligibleIdx += missIdx
				ctr.EligibleVecs += denseVecs
				ctr.UniqueRows += uniq
				if wire {
					ctr.WireRows += uniq
					ctr.WireSavedBytes += float64(denseVecs-uniq) * vb
				} else {
					ctr.WireVecs += denseVecs
				}
			}
			if !remote {
				continue
			}
			nodeDense += denseVecs
			nodeExp[li] = nodeExpand
			if li < per-1 {
				continue
			}
			// The node's last consumer: its key set is complete.
			nodeUniq := int64(nodeIdx.len())
			nodeWire := nodeUniq < nodeDense
			dv.NodeUniq[src][node] = nodeUniq
			dv.NodeDense[src][node] = nodeDense
			dv.NodeWire[src][node] = nodeWire
			dv.NodeNewAt[src][node] = nodeNewAt
			if cfg.Functional && nodeWire {
				dv.NodeKeys[src][node] = nodeKeys
				copy(dv.NodeExpand[src][node*per:], nodeExp)
			}
		}
	}
	s.dedupStats = s.dedupStats.Add(ctr)
	return dv
}

// ownerScratch fills the run's per-owner classifier scratch: src's feature
// bags and table row counts, in plan order.
func (s *System) ownerScratch(bd *BatchData, src int) ([]*sparse.FeatureBag, []int) {
	fg := len(s.Plan[src])
	fbs := scratchSlice(&s.planScr.fbs, fg)
	rowsPer := scratchSlice(&s.planScr.rowsPer, fg)
	for fi, fid := range s.Plan[src] {
		fbs[fi] = bd.Sparse.FeatureByID(fid)
		rowsPer[fi] = s.Cfg.tableRows(fid)
	}
	return fbs, rowsPer
}

// attachDedup allocates the batch's cross-GPU expansion plumbing: the
// consumer-side staging buffers the owners stream unique rows into
// (functional wire pairs), and the post-quiet barrier one-sided backends
// rendezvous on before expanding — quiet only drains a PE's OWN pipes, so a
// consumer must not expand until every owner has finished streaming. The
// baseline never awaits the barrier (its collective is already a global
// synchronisation point); an unawaited barrier is inert.
func (s *System) attachDedup(bd *BatchData, dv *DedupView) {
	if s.Cfg.GPUs <= 1 {
		return
	}
	bd.dedupBarrier = sim.NewBarrier(s.Env, s.Cfg.GPUs)
	if !s.Cfg.Functional {
		return
	}
	bd.DedupStage = make([][][]float32, s.Cfg.GPUs)
	for src := range bd.DedupStage {
		bd.DedupStage[src] = make([][]float32, s.Cfg.GPUs)
		for dst := range bd.DedupStage[src] {
			if dv.Wire[src][dst] && !s.nodeWirePair(dv, src, dst) {
				bd.DedupStage[src][dst] = make([]float32, int(dv.Uniq[src][dst])*s.Cfg.Dim)
			}
		}
	}
	if dv.NodeWire != nil {
		// Node-level staging: one buffer per (owner, destination node), held
		// by the node's stage-lane GPU.
		bd.NodeStage = make([][][]float32, s.Cfg.GPUs)
		for src := range bd.NodeStage {
			bd.NodeStage[src] = make([][]float32, s.cluster.Nodes)
			for node := range bd.NodeStage[src] {
				if dv.NodeWire[src][node] {
					bd.NodeStage[src][node] = make([]float32, int(dv.NodeUniq[src][node])*s.Cfg.Dim)
				}
			}
		}
	}
}
