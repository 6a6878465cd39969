package retrieval

import (
	"pgasemb/internal/pgas"
	"pgasemb/internal/sim"
	"pgasemb/internal/trace"
)

// AggregatorConfig enables the paper's future-work aggregated-store variant
// (§V): one-sided stores to the same destination are batched into
// FlushBytes-sized messages, bounded by MaxWait.
type AggregatorConfig struct {
	FlushBytes int
	MaxWait    sim.Duration
}

// PGASFused is the paper's contribution: a single fused kernel per GPU that
// pools each output embedding and immediately issues a one-sided PGAS store
// to the GPU that owns the output's sample (Listing 2), followed by quiet.
// There is no separate communication phase, no packing into collective
// buffers, and no unpack step — remote writes land at their final address.
//
// StageRemote is the A2 ablation: stores overlap with compute as usual but
// land in a rank-ordered staging buffer on the destination, so the unpack
// step returns — isolating how much of the win is overlap alone.
//
// Aggregate, when non-nil, routes remote stores through the asynchronous
// aggregator (future-work variant A3).
type PGASFused struct {
	StageRemote bool
	Aggregate   *AggregatorConfig
}

// Name implements Backend.
func (b *PGASFused) Name() string {
	switch {
	case b.StageRemote:
		return "pgas-overlap-only"
	case b.Aggregate != nil:
		return "pgas-aggregated"
	default:
		return "pgas-fused"
	}
}

// RunBatch walks the (shard, consumer) pairs the batch's route plan has GPU
// g serving: without replication, its own shard to every consumer; with
// Config.Replicas, whatever pairs the plan assigned it — mirrored shards
// included, consumer-local pairs storing straight into HBM. Kernel items,
// one-sided stores, staged unpack bytes and codec counts all come from the
// same per-pair counts.
func (b *PGASFused) RunBatch(s *System, p *sim.Proc, g int, bd *BatchData, bk *trace.Breakdown) {
	cfg := s.Cfg
	dev := s.Devs[g]
	stream := dev.Stream("emb-fused")
	pe := s.PGAS.PE(g)
	pe.SetSlot(bd.Slot)

	var agg *pgas.Aggregator
	if b.Aggregate != nil {
		agg = pgas.NewAggregator(pe, b.Aggregate.FlushBytes, b.Aggregate.MaxWait)
	}

	batchStart := p.Now()
	p.Wait(dev.Params().KernelLaunch)

	vecBytes := cfg.VectorBytes()
	fvb := float64(vecBytes)
	wireVecBytes := cfg.WireVectorBytes() // per-vector payload on the transport

	// Hot-row cache discounts (zero when plan.Cache is nil): the kernel's
	// occupancy is set by the whole batch's real item count — every served
	// pair's items (pairItems) plus consumer-side cache gathers. The
	// per-peer store overhead covers the consumers this GPU stores to
	// remotely. All routing decisions come from the batch's compiled plan.
	plan := bd.Plan
	batchHitVecs, _ := plan.Cache.HitAt(g)
	kernelItems, peers := batchHitVecs, 0
	for c := 0; c < cfg.GPUs; c++ {
		serves := false
		for o := 0; o < cfg.GPUs; o++ {
			if plan.ServeGPU(o, c) == g {
				kernelItems += plan.pairItems(o, c)
				serves = true
			}
		}
		if serves && c != g {
			peers++
		}
	}

	// Owner-side wire encode: remote-bound vectors are compressed as they
	// leave. Priced once for the batch from the plan's counts — a streaming
	// kernel folded into the fused window.
	if cfg.WireCodecActive() && cfg.GPUs > 1 {
		if sent, _ := plan.OneSidedCodecVecs(g); sent > 0 {
			p.Wait(dev.EncodeKernelCost(float64(sent)*fvb, float64(sent)*float64(wireVecBytes)))
		}
	}

	// The fused kernel walks the batch in sample-range chunks; each chunk
	// pays its share of compute time, then its remote outputs leave as
	// one-sided stores while the next chunk computes — the fine-grained
	// overlap of §III-B.
	chunks := cfg.ChunksPerKernel
	for k := 0; k < chunks; k++ {
		s0 := cfg.BatchSize * k / chunks
		s1 := cfg.BatchSize * (k + 1) / chunks
		if s0 == s1 {
			continue
		}
		p.Wait(b.chunkCost(s, g, bd, s0, s1, kernelItems, peers))

		// One put per (peer, target) per chunk, carrying every served pair's
		// stores to that peer.
		for peer := 0; peer < cfg.GPUs; peer++ {
			if peer == g {
				continue
			}
			plo, phi := s.Minibatch(peer)
			o0, o1 := clampRange(s0, s1, plo, phi)
			if o1 <= o0 {
				continue
			}
			vecs, target := 0, peer
			for o := 0; o < cfg.GPUs; o++ {
				if plan.ServeGPU(o, peer) != g {
					continue
				}
				var n int
				n, target = plan.chunkItems(o, peer, o0, o1)
				vecs += n
			}
			if vecs == 0 {
				continue
			}
			if agg != nil {
				agg.StoreBytes(s.PGAS.PE(target), vecs*wireVecBytes)
			} else {
				pe.PutVectors(s.PGAS.PE(target), vecs, wireVecBytes)
			}
		}
	}

	if agg != nil {
		agg.FlushAll()
	}
	pe.QuietSlot(p, bd.Slot)
	bk.Accumulate(CompFused, p.Now()-batchStart)

	if bd.dedupBarrier != nil {
		// Quiet drained only OUR pipes; expansion consumes rows streamed by
		// every owner, so all PEs rendezvous first.
		expandStart := p.Now()
		bd.dedupBarrier.Await(p)
		if expand, ok := s.expandCost(p, g, plan); ok {
			stream.Launch(p, expand) // drains before the final Synchronize
		}
		bk.Accumulate(CompSyncUnpack, p.Now()-expandStart)
	}

	if b.StageRemote && cfg.GPUs > 1 {
		// A2 ablation: remote stores landed rank-ordered; rearrange. Each
		// remotely served pair's rows land here as its kernel items did at
		// the server — node-staged rows on the stage-lane GPU only.
		unpackStart := p.Now()
		segments := 0
		for src := 0; src < cfg.GPUs; src++ {
			if src != g && plan.serves(src, g) {
				segments++
			}
		}
		var remote int64
		for o := 0; o < cfg.GPUs; o++ {
			if plan.ServeGPU(o, g) != g {
				remote += int64(plan.pairItems(o, g))
			}
		}
		if segments > 0 {
			unpack := dev.UnpackKernelCost(float64(remote)*fvb, segments)
			_, unpackEnd := stream.Launch(p, unpack)
			p.WaitUntil(unpackEnd)
		}
		bk.Accumulate(CompSyncUnpack, p.Now()-unpackStart)
	}

	// Consumer-side wire decode: everything one-sidedly landed here is
	// dequantized back to fp32 before the next layer reads it.
	if cfg.WireCodecActive() && cfg.GPUs > 1 {
		decStart := p.Now()
		if _, recv := plan.OneSidedCodecVecs(g); recv > 0 {
			dec := dev.DecodeKernelCost(float64(recv)*float64(wireVecBytes), float64(recv)*fvb)
			_, decEnd := stream.Launch(p, dec)
			p.WaitUntil(decEnd)
		}
		bk.Accumulate(CompSyncUnpack, p.Now()-decStart)
	}

	syncStart := p.Now()
	stream.Synchronize(p)
	bk.Accumulate(CompSyncUnpack, p.Now()-syncStart)
	s.walkDone(bd)
}

// expandCost prices consumer g's expansion kernel, which re-pools every wire
// pairing it consumes from the unique rows that pairing stored. It first waits out the NVLink redistribution of
// node-staged rows that landed on another lane GPU (still wire-encoded;
// consumers decode before the final sync). ok is false when nothing expands.
func (s *System) expandCost(p *sim.Proc, g int, plan *RoutePlan) (cost sim.Duration, ok bool) {
	dv := plan.Dedup
	myNode := s.nodeOf(g)
	var refs int64
	outVecs := 0
	var redist sim.Time
	for src := 0; src < s.Cfg.GPUs; src++ {
		if src == g {
			continue
		}
		switch plan.Class(src, g) {
		case RouteNodeWire:
			refs += plan.pairMissIdx(src, g)
			outVecs += plan.pairVecs(src, g)
			if lane := s.stageGPU(src, myNode); lane != g {
				bytes := float64(dv.NodeUniq[src][myNode]) * s.Fab.WireBytes(s.Cfg.WireVectorBytes())
				if done := s.Fab.Pipe(lane, g).Offer(bytes); done > redist {
					redist = done
				}
			}
		case RouteWire:
			refs += plan.pairMissIdx(src, g)
			outVecs += plan.pairVecs(src, g)
		}
	}
	if redist > p.Now() {
		p.WaitUntil(redist)
	}
	if outVecs == 0 {
		return 0, false
	}
	return s.Devs[g].ExpandKernelCost(refs, outVecs, s.Cfg.VectorBytes()), true
}

// chunkCost prices one chunk of the fused kernel over every (shard,
// consumer) pair GPU g serves, plus the consumer's own cache hits gathered
// from the hot working set. Each pair streams its cache-missed references'
// indices and gathers by its route: a dense pair reads its references (or,
// under gather dedup, its new unique rows once and the duplicates from the
// staged working set) and pools its vectors; a wire or node-wire pair reads
// and stages only the keys first seen in the chunk. Consumer-local outputs
// stream to HBM (the final output); the rest issue one-sided stores. Chunk
// items sum exactly to the kernel's occupancy item count. It logs every pair.
func (b *PGASFused) chunkCost(s *System, g int, bd *BatchData, s0, s1, kernelItems, peers int) sim.Duration {
	cfg := s.Cfg
	dev := s.Devs[g]
	plan := bd.Plan
	fvb := float64(cfg.VectorBytes())
	wvb := cfg.WireVectorBytes()
	var readBytes, streamBytes float64
	var items, issues int
	var chunkIdx int64
	for c := 0; c < cfg.GPUs; c++ {
		clo, chi := s.Minibatch(c)
		o0, o1 := clampRange(s0, s1, clo, chi)
		if o1 <= o0 {
			continue
		}
		for o := 0; o < cfg.GPUs; o++ {
			if plan.ServeGPU(o, c) != g {
				continue
			}
			_, hitI := plan.OwnerChunkHits(o, o0, o1)
			missIdx := plan.localIndexTotal(o, o0, o1) - hitI
			chunkIdx += missIdx
			vecs, _ := plan.chunkItems(o, c, o0, o1)
			items += vecs
			cls := plan.Class(o, c)
			switch {
			case cls == RouteWire || cls == RouteNodeWire:
				readBytes += float64(float64(vecs) * fvb)
			case plan.GatherDedup(o, c):
				nk := int64(plan.NewKeysIn(o, c, o0, o1))
				readBytes += float64(float64(nk)*fvb) + dev.HotReadEquivalent(float64(missIdx-nk)*fvb)
				streamBytes += float64(float64(nk) * fvb)
			default:
				readBytes += float64(float64(missIdx) * fvb)
			}
			t := transfer{server: g, consumer: c, shard: o, lo: o0, hi: o1, route: RouteDense, vecs: vecs}
			if c == g {
				streamBytes += float64(float64(vecs) * fvb) // final output
			} else {
				issues += vecs
				t.route, t.wireBytes = cls, vecs*wvb
			}
			bd.log.add(t)
		}
	}
	hitVecs, hitIdx := plan.ConsumerChunkHits(g, s0, s1)
	readBytes += dev.HotReadEquivalent(float64(hitIdx) * fvb)
	streamBytes += float64(float64(chunkIdx+hitIdx)*8) + float64(float64(hitVecs)*fvb)
	items += hitVecs
	return dev.GatherKernelChunkCost(readBytes, streamBytes, items, kernelItems) +
		dev.RemoteIssueCost(issues) +
		sim.Duration(sim.Duration(peers)*dev.Params().RemotePeerChunkOverhead)
}

// clampRange returns [a0, a1) ∩ [b0, b1) as a (possibly empty) range.
func clampRange(a0, a1, b0, b1 int) (int, int) {
	if b0 > a0 {
		a0 = b0
	}
	if b1 < a1 {
		a1 = b1
	}
	return a0, a1
}
