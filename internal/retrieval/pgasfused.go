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

	var agg *pgas.Aggregator
	if b.Aggregate != nil {
		agg = pgas.NewAggregator(pe, b.Aggregate.FlushBytes, b.Aggregate.MaxWait)
	}

	batchStart := p.Now()
	p.Wait(dev.Params().KernelLaunch)

	fvb := float64(cfg.VectorBytes())
	wireVecBytes := cfg.WireVectorBytes() // per-vector payload on the transport
	plan := bd.Plan
	kernelItems, peers := plan.fusedKernelItems(g), plan.storeFanOut(g)

	// Owner-side wire encode: remote-bound vectors are compressed as they
	// leave. Priced once for the batch from the plan's counts — a streaming
	// kernel folded into the fused window.
	if cfg.WireCodecActive() && cfg.GPUs > 1 {
		if sent, _ := plan.codecVecs(g, plan.Class); sent > 0 {
			p.Wait(dev.EncodeKernelCost(float64(sent)*fvb, float64(sent)*float64(wireVecBytes)))
		}
	}

	// The fused kernel walks the batch in sample-range chunks; each chunk
	// pays its share of compute time, then its remote outputs leave as
	// one-sided stores while the next chunk computes — the fine-grained
	// overlap of §III-B. A chunk's gather runs at the whole kernel's
	// occupancy, issues its remote items as stores and pays the per-chunk
	// overhead of each GPU it stores to. The hit read is added after the
	// pairs' (see Baseline.RunBatch on the order).
	chunks := cfg.ChunksPerKernel
	for k := 0; k < chunks; k++ {
		s0 := cfg.BatchSize * k / chunks
		s1 := cfg.BatchSize * (k + 1) / chunks
		if s0 == s1 {
			continue
		}
		var gt gatherTraffic
		gt.addPairs(s, g, plan, s0, s1, plan.Class, bd.log)
		gt.addHits(s, g, plan, s0, s1)
		p.Wait(dev.GatherKernelChunkCost(gt.read, gt.stream, gt.items, kernelItems) +
			dev.RemoteIssueCost(gt.remote) +
			sim.Duration(sim.Duration(peers)*dev.Params().RemotePeerChunkOverhead))

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
				n, target = plan.itemsIn(plan.Class(o, peer), o, peer, o0, o1)
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
	pe.Quiet(p)
	bk.Accumulate(CompFused, p.Now()-batchStart)

	if plan.barrier != nil {
		// Quiet drained only OUR pipes; expansion consumes rows streamed by
		// every owner, so all PEs rendezvous first.
		expandStart := p.Now()
		plan.barrier.Await(p)
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
		if remote, segments := plan.unpackWork(g, plan.Class, true); segments > 0 {
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
		if _, recv := plan.codecVecs(g, plan.Class); recv > 0 {
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
// pairing it consumes from the unique rows that pairing stored (expandWork).
// It first waits out the NVLink redistribution of node-staged rows that
// landed on another lane GPU, still wire-encoded: consumers decode before
// the final sync. ok is false when nothing expands.
func (s *System) expandCost(p *sim.Proc, g int, plan *RoutePlan) (cost sim.Duration, ok bool) {
	myNode := s.nodeOf(g)
	var redist sim.Time
	for src := 0; src < s.Cfg.GPUs; src++ {
		if plan.Class(src, g) != RouteNodeWire {
			continue
		}
		if lane := s.stageGPU(src, myNode); lane != g {
			bytes := float64(plan.node(src, myNode).uniq) * s.Fab.WireBytes(s.Cfg.WireVectorBytes())
			if done := s.Fab.Pipe(lane, g).Offer(bytes); done > redist {
				redist = done
			}
		}
	}
	if redist > p.Now() {
		p.WaitUntil(redist)
	}
	refs, outVecs := plan.expandWork(g, plan.Class)
	if outVecs == 0 {
		return 0, false
	}
	return s.Devs[g].ExpandKernelCost(refs, outVecs, s.Cfg.VectorBytes()), true
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
