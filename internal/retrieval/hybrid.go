package retrieval

import (
	"pgasemb/internal/sim"
	"pgasemb/internal/sparse"
	"pgasemb/internal/trace"
)

// Hybrid is a size-adaptive backend: for every (owner, consumer) pair of a
// batch it picks the cheaper transport — one-sided PGAS stores (paying the
// per-message header tax at link rate) or participation in the bulk-
// synchronous all-to-all (paying channel pacing, per-chunk latency and an
// amortised launch overhead). The decision is computed from the batch's
// compiled route plan and the machine's calibrated parameters only, so every
// GPU independently derives the same routing matrix — no agreement protocol.
//
// Three execution modes fall out per batch:
//
//   - every pair prefers stores  -> delegate to PGASFused wholesale
//   - every pair prefers the collective (single-node only; node-staged and
//     cross-node pairs always ride the one-sided path) -> delegate to Baseline
//   - otherwise runMixed: one fused chunked kernel streams the store-routed
//     pairs exactly like PGASFused while packing collective-routed pairs
//     into send segments, then all ranks enter one all-to-all carrying only
//     the collective-routed traffic, and a single unpack/expand phase lands
//     both arrival paths.
//
// On the calibrated V100 machine the header tax never exceeds the collective
// overheads at paper scales, so hybrid == pgas-fused there; the crossover
// engages when HeaderBytes grows or ChannelBandwidth approaches link rate
// (see hybrid_test.go).
type Hybrid struct {
	pgas PGASFused
	base Baseline
}

// Name implements Backend.
func (b *Hybrid) Name() string { return "hybrid" }

// routeCollective reports whether the (owner src -> consumer dst) pair rides
// the all-to-all instead of one-sided stores. Diagonal, node-staged and
// cross-node pairs never do: the diagonal is local, node staging has no
// collective counterpart (a pair-addressed segment cannot share rows across
// a node's consumers), and cross-node stores are proxy-coalesced onto the
// NICs — per-pair collective pricing does not describe them. For the rest,
// both transports move the same vectors (the plan's CollectiveVecs), so the
// comparison reduces to wire economics: per-vector header tax at pair link
// rate versus channel pacing + per-chunk latency + the rank's launch
// overhead amortised over its peers. Mirrors collective.Comm's transferTime.
func (b *Hybrid) routeCollective(s *System, plan *RoutePlan, src, dst int) bool {
	if src == dst {
		return false
	}
	if plan.Class(src, dst) == RouteNodeWire {
		return false
	}
	if s.multiNode() && s.nodeOf(src) != s.nodeOf(dst) {
		return false
	}
	vecs := plan.CollectiveVecs(src, dst)
	if vecs == 0 {
		return false
	}
	// Both transports carry the ENCODED payload under a wire codec, but the
	// per-message header tax is unchanged — so reduced precision shifts the
	// crossover toward the one-sided path (headers amortise over fewer
	// payload bytes).
	vb := s.Cfg.WireVectorBytes()
	link := s.Fab.PairBandwidth(src, dst)
	pgasT := float64(vecs) * s.Fab.WireBytes(vb) / link

	payload := float64(vecs) * float64(vb)
	cp := s.Comm.Params()
	bw := cp.ChannelBandwidth
	if link < bw {
		bw = link
	}
	chunks := int(payload) / cp.ChunkBytes
	if int(payload)%cp.ChunkBytes != 0 {
		chunks++
	}
	collT := payload/bw + sim.Duration(chunks)*cp.PerChunkLatency +
		cp.LaunchOverhead/sim.Duration(s.Cfg.GPUs-1)
	return collT < pgasT
}

// scanRoutes classifies the batch's whole routing matrix: whether ANY pair
// rides the collective and whether EVERY pair that moves data does.
// Zero-vector pairs are transport-indifferent and excluded from the
// all-collective tally.
func (b *Hybrid) scanRoutes(s *System, plan *RoutePlan) (anyColl, allColl bool) {
	allColl = s.Cfg.GPUs > 1
	for src := 0; src < s.Cfg.GPUs; src++ {
		for dst := 0; dst < s.Cfg.GPUs; dst++ {
			if src == dst {
				continue
			}
			if plan.CollectiveVecs(src, dst) == 0 && plan.Class(src, dst) != RouteNodeWire {
				continue
			}
			if b.routeCollective(s, plan, src, dst) {
				anyColl = true
			} else {
				allColl = false
			}
		}
	}
	return anyColl, allColl
}

func (b *Hybrid) RunBatch(s *System, p *sim.Proc, g int, bd *BatchData, bk *trace.Breakdown) {
	if s.Cfg.Replicas > 1 {
		// Replica failover re-routes (shard, consumer) pairs per batch; the
		// uniform one-sided path handles every routing the serve matrix can
		// produce, so delegate wholesale.
		b.pgas.RunBatch(s, p, g, bd, bk)
		return
	}
	anyColl, allColl := b.scanRoutes(s, bd.Plan)
	switch {
	case !anyColl:
		b.pgas.RunBatch(s, p, g, bd, bk)
	case allColl:
		b.base.RunBatch(s, p, g, bd, bk)
	default:
		b.runMixed(s, p, g, bd, bk)
	}
}

// runMixed executes a batch whose pairs split across the two transports.
// Phase 1 is PGASFused's chunked fused kernel, except collective-routed
// pair outputs are stored to the send buffer in HBM instead of leaving as
// one-sided stores (and pay no remote-issue or per-peer overhead). Phase 2:
// quiet drains this rank's stores, then ALL ranks enter the all-to-all —
// its entry rendezvous doubles as the post-store barrier, so staged dedup
// rows are complete before any consumer expands. Phase 3 unpacks collective
// dense segments, then one expansion kernel re-pools every wire pairing
// regardless of which transport delivered its rows.
func (b *Hybrid) runMixed(s *System, p *sim.Proc, g int, bd *BatchData, bk *trace.Breakdown) {
	cfg := s.Cfg
	dev := s.Devs[g]
	stream := dev.Stream("emb-hybrid")
	sc := s.scratchFor(g, bd)
	pe := s.PGAS.PE(g)
	pe.SetSlot(bd.Slot)
	plan := bd.Plan
	view := plan.Cache
	dv := plan.Dedup
	fg := s.LocalTables(g)
	vecBytes := cfg.VectorBytes()
	vb := float64(vecBytes)
	wireVecBytes := cfg.WireVectorBytes() // per-vector payload on either transport

	batchStart := p.Now()
	p.Wait(dev.Params().KernelLaunch)

	// Owner-side wire encode: per pair both transports move the same vectors,
	// so the one-sided tally covers the mixed schedule's full send side.
	if cfg.WireCodecActive() {
		if sent, _ := plan.OneSidedCodecVecs(g); sent > 0 {
			p.Wait(dev.EncodeKernelCost(float64(sent)*vb, float64(sent)*float64(wireVecBytes)))
		}
	}

	// Kernel occupancy: identical to PGASFused — the same outputs are
	// produced whichever transport carries them.
	batchSkipVecs, _ := view.SkipFrom(g)
	batchHitVecs, _ := view.HitAt(g)
	kernelItems := cfg.BatchSize*fg - batchSkipVecs + batchHitVecs
	if dv != nil {
		for d := 0; d < cfg.GPUs; d++ {
			if plan.Class(g, d) == RouteWire {
				kernelItems += int(dv.Uniq[g][d]) - int(dv.DenseVecs[g][d])
			}
		}
		if dv.NodeWire != nil {
			for node := range dv.NodeWire[g] {
				if plan.NodeWire(g, node) {
					kernelItems += int(dv.NodeUniq[g][node]) - int(dv.NodeDense[g][node])
				}
			}
		}
	}
	var perPeer []int
	if view != nil && dv == nil {
		perPeer = scratchSlice(&sc.perPeer, cfg.GPUs)
	}
	// Per-peer store overhead applies to store-routed peers only.
	pgasPeers := 0
	for d := 0; d < cfg.GPUs; d++ {
		if d != g && !b.routeCollective(s, plan, g, d) {
			pgasPeers++
		}
	}

	var scratch []float32
	var cursors, nodeCursors []int
	if cfg.Functional {
		scratch = scratchSlice(&sc.vec, cfg.Dim)
		if dv != nil {
			cursors = scratchSlice(&sc.cursors, cfg.GPUs)
			for i := range cursors {
				cursors[i] = 0
			}
			if dv.NodeWire != nil {
				nodeCursors = scratchSlice(&sc.nodeCursors, s.cluster.Nodes)
				for i := range nodeCursors {
					nodeCursors[i] = 0
				}
			}
		}
	}

	chunks := cfg.ChunksPerKernel
	for k := 0; k < chunks; k++ {
		s0 := cfg.BatchSize * k / chunks
		s1 := cfg.BatchSize * (k + 1) / chunks
		if s0 == s1 {
			continue
		}
		p.Wait(b.chunkCost(s, g, bd, s0, s1, kernelItems, pgasPeers, perPeer))

		if cfg.Functional {
			b.functionalChunk(s, g, bd, s0, s1, scratch, cursors, nodeCursors)
			continue
		}
		for peer := 0; peer < cfg.GPUs; peer++ {
			if peer == g {
				continue
			}
			var vecs int
			target := peer
			switch plan.Class(g, peer) {
			case RouteNodeWire:
				node := s.nodeOf(peer)
				plo, phi := s.Minibatch(peer)
				o0, o1 := clampRange(s0, s1, plo, phi)
				vecs = plan.NodeNewKeysIn(g, node, o0, o1)
				target = s.stageGPU(g, node)
			case RouteWire:
				if b.routeCollective(s, plan, g, peer) {
					continue // ships in the all-to-all
				}
				vecs = plan.NewKeysIn(g, peer, s0, s1)
			default:
				if b.routeCollective(s, plan, g, peer) {
					continue // packed into the send buffer
				}
				plo, phi := s.Minibatch(peer)
				vecs = overlap(s0, s1, plo, phi) * fg
				if dv != nil {
					o0, o1 := clampRange(s0, s1, plo, phi)
					hitV, _ := plan.OwnerChunkHits(bd.Summary, g, o0, o1, nil)
					vecs -= hitV
				} else if perPeer != nil {
					vecs -= perPeer[peer]
				}
			}
			if vecs == 0 {
				continue
			}
			pe.PutVectors(s.PGAS.PE(target), vecs, wireVecBytes)
		}
	}
	pe.QuietSlot(p, bd.Slot)
	bk.Accumulate(CompFused, p.Now()-batchStart)

	// --- Collective over the collective-routed pairs only. Every rank
	// enters (bulk-synchronous contract), even with all-zero segments; the
	// entry rendezvous guarantees every owner's stores have quieted before
	// the expansion phase reads staged rows. Like the baseline's, this
	// launch is stream-ordered behind the exchange gate under pipelining.
	commStart := p.Now()
	s.awaitExchangeGate(p, g)
	var recvBuf []float32
	if cfg.Functional {
		sendSegs := scratchSlice(&sc.sendSegs, cfg.GPUs)
		recvSegs := scratchSlice(&sc.recvSegs, cfg.GPUs)
		recvFloats, packFloats := 0, 0
		for peer := 0; peer < cfg.GPUs; peer++ {
			if b.routeCollective(s, plan, peer, g) {
				recvFloats += plan.CollectiveVecs(peer, g) * cfg.Dim
			}
			if b.routeCollective(s, plan, g, peer) {
				packFloats += plan.CollectiveVecs(g, peer) * cfg.Dim
			}
		}
		recvBuf = scratchSlice(&sc.recvBuf, recvFloats)
		pack := scratchSlice(&sc.packBuf, packFloats)
		part := bd.Parts[g]
		coll := s.colls[g]
		packAt, at := 0, 0
		for peer := 0; peer < cfg.GPUs; peer++ {
			sendSegs[peer] = nil
			recvSegs[peer] = nil
			if b.routeCollective(s, plan, g, peer) {
				if plan.CollectiveClass(g, peer) == RouteWire {
					// Wire pair over the collective: ship the unique rows in
					// first-seen order, exactly as the baseline does.
					seg := pack[packAt : packAt+int(dv.Uniq[g][peer])*cfg.Dim]
					packAt += len(seg)
					for i, key := range dv.Keys[g][peer] {
						fi := int(key >> 32)
						row := int(uint32(key))
						w := coll.Tables[fi].Weights.Data()
						copy(seg[i*cfg.Dim:(i+1)*cfg.Dim], w[row*cfg.Dim:(row+1)*cfg.Dim])
					}
					sendSegs[peer] = seg
				} else {
					// Dense pair: pool miss vectors sample-major into the
					// send buffer (the chunk loop skipped them).
					seg := pack[packAt:packAt]
					plo, phi := s.Minibatch(peer)
					for smp := plo; smp < phi; smp++ {
						for fi := range part.Features {
							if view != nil && view.Hit[g][fi*cfg.BatchSize+smp] {
								continue
							}
							coll.Tables[fi].LookupPooled(part.Features[fi].Bag(smp), coll.Mode, scratch)
							seg = append(seg, scratch...)
						}
					}
					packAt += len(seg)
					sendSegs[peer] = seg
				}
			}
			if b.routeCollective(s, plan, peer, g) {
				vecs := plan.CollectiveVecs(peer, g)
				recvSegs[peer] = recvBuf[at : at+vecs*cfg.Dim]
				at += vecs * cfg.Dim
			}
		}
		s.Comm.AllToAllSingle(p, g, sendSegs, recvSegs)
	} else {
		sendBytes := scratchSlice(&sc.sendBytes, cfg.GPUs)
		recvBytes := scratchSlice(&sc.recvBytes, cfg.GPUs)
		for peer := 0; peer < cfg.GPUs; peer++ {
			sendBytes[peer] = 0
			recvBytes[peer] = 0
			if b.routeCollective(s, plan, g, peer) {
				sendBytes[peer] = float64(plan.CollectiveVecs(g, peer)) * float64(wireVecBytes)
			}
			if b.routeCollective(s, plan, peer, g) {
				recvBytes[peer] = float64(plan.CollectiveVecs(peer, g)) * float64(wireVecBytes)
			}
		}
		s.Comm.AllToAllSingleSizes(p, g, sendBytes, recvBytes)
	}
	bk.Accumulate(CompComm, p.Now()-commStart)

	// --- Unpack collective dense segments, then expand every wire pairing.
	unpackStart := p.Now()
	// Consumer-side wire decode first: both arrival paths carry encoded
	// rows, dequantized back to fp32 before unpack/expansion reads them.
	if cfg.WireCodecActive() {
		if _, recv := plan.OneSidedCodecVecs(g); recv > 0 {
			dec := dev.DecodeKernelCost(float64(recv)*float64(wireVecBytes), float64(recv)*vb)
			_, decEnd := stream.Launch(p, dec)
			p.WaitUntil(decEnd)
		}
	}
	var denseBytes float64
	denseSegs := 0
	for src := 0; src < cfg.GPUs; src++ {
		if !b.routeCollective(s, plan, src, g) || plan.CollectiveClass(src, g) == RouteWire {
			continue
		}
		denseBytes += float64(plan.CollectiveVecs(src, g)) * vb
		denseSegs++
	}
	if denseSegs > 0 {
		unpack := dev.UnpackKernelCost(denseBytes, denseSegs)
		_, unpackEnd := stream.Launch(p, unpack)
		p.WaitUntil(unpackEnd)
	}
	if dv != nil {
		// Expansion cost is transport-independent: the same references
		// re-pool from the same unique-row working set whether the rows
		// arrived in a collective segment or a PGAS staging buffer.
		myNode := s.nodeOf(g)
		var refs int64
		outVecs := 0
		var redist sim.Time
		for src := 0; src < cfg.GPUs; src++ {
			if src == g {
				continue
			}
			switch plan.Class(src, g) {
			case RouteNodeWire:
				refs += dv.MissIdx[src][g]
				outVecs += int(dv.DenseVecs[src][g])
				if lane := s.stageGPU(src, myNode); lane != g {
					bytes := float64(dv.NodeUniq[src][myNode]) * s.Fab.WireBytes(wireVecBytes)
					if done := s.Fab.Pipe(lane, g).Offer(bytes); done > redist {
						redist = done
					}
				}
			case RouteWire:
				refs += dv.MissIdx[src][g]
				outVecs += int(dv.DenseVecs[src][g])
			}
		}
		if redist > p.Now() {
			p.WaitUntil(redist)
		}
		if outVecs > 0 {
			expand := dev.ExpandKernelCost(refs, outVecs, vecBytes)
			_, expandEnd := stream.Launch(p, expand)
			p.WaitUntil(expandEnd)
		}
	}
	if cfg.Functional {
		b.functionalUnpack(s, g, recvBuf, bd)
	}
	stream.Synchronize(p)
	bk.Accumulate(CompSyncUnpack, p.Now()-unpackStart)
}

// chunkCost prices one chunk of the mixed fused kernel. It follows
// PGASFused's chunk pricing exactly, except collective-routed pair outputs
// stream to the HBM send buffer instead of issuing one-sided stores, and the
// per-peer store overhead covers store-routed peers only.
func (b *Hybrid) chunkCost(s *System, g int, bd *BatchData, s0, s1, kernelItems, pgasPeers int, perPeer []int) sim.Duration {
	cfg := s.Cfg
	dev := s.Devs[g]
	plan := bd.Plan
	dv := plan.Dedup
	fg := s.LocalTables(g)
	fvb := float64(cfg.VectorBytes())
	lo, hi := s.Minibatch(g)

	if dv == nil {
		for i := range perPeer {
			perPeer[i] = 0
		}
		skipVecs, skipIdx := plan.OwnerChunkHits(bd.Summary, g, s0, s1, perPeer)
		hitVecs, hitIdx := plan.ConsumerChunkHits(bd.Summary, g, s0, s1)
		chunkIdx := s.localIndexTotal(bd.Summary, g, s0, s1) - skipIdx
		localSamples := overlap(s0, s1, lo, hi)
		collVecs, issues := 0, 0
		for d := 0; d < cfg.GPUs; d++ {
			if d == g {
				continue
			}
			dlo, dhi := s.Minibatch(d)
			pv := overlap(s0, s1, dlo, dhi) * fg
			if perPeer != nil {
				pv -= perPeer[d]
			}
			if b.routeCollective(s, plan, g, d) {
				collVecs += pv
			} else {
				issues += pv
			}
		}
		readBytes := float64(chunkIdx)*fvb + dev.HotReadEquivalent(float64(hitIdx)*fvb)
		streamBytes := float64(chunkIdx+hitIdx)*8 + float64(localSamples*fg+hitVecs+collVecs)*fvb
		return dev.GatherKernelChunkCost(readBytes, streamBytes, (s1-s0)*fg-skipVecs+hitVecs, kernelItems) +
			dev.RemoteIssueCost(issues) +
			sim.Duration(pgasPeers)*dev.Params().RemotePeerChunkOverhead
	}

	var readBytes, streamBytes float64
	var items, issues int
	var chunkIdx int64
	for d := 0; d < cfg.GPUs; d++ {
		dlo, dhi := s.Minibatch(d)
		o0, o1 := clampRange(s0, s1, dlo, dhi)
		if o1 <= o0 {
			continue
		}
		ovl := o1 - o0
		pairIdx := s.localIndexTotal(bd.Summary, g, o0, o1)
		if d == g {
			chunkIdx += pairIdx
			if plan.GatherDedup(g, g) {
				nk := int64(plan.NewKeysIn(g, g, o0, o1))
				readBytes += float64(nk)*fvb + dev.HotReadEquivalent(float64(pairIdx-nk)*fvb)
				streamBytes += float64(nk) * fvb
			} else {
				readBytes += float64(pairIdx) * fvb
			}
			streamBytes += float64(ovl*fg) * fvb
			items += ovl * fg
			continue
		}
		hitV, hitI := plan.OwnerChunkHits(bd.Summary, g, o0, o1, nil)
		missIdx := pairIdx - hitI
		chunkIdx += missIdx
		coll := b.routeCollective(s, plan, g, d)
		switch plan.Class(g, d) {
		case RouteNodeWire:
			nk := plan.NodeNewKeysIn(g, s.nodeOf(d), o0, o1)
			readBytes += float64(nk) * fvb
			items += nk
			issues += nk
			continue
		case RouteWire:
			nk := plan.NewKeysIn(g, d, o0, o1)
			readBytes += float64(nk) * fvb
			items += nk
			if coll {
				streamBytes += float64(nk) * fvb
			} else {
				issues += nk
			}
			continue
		}
		missVecs := ovl*fg - hitV
		if plan.GatherDedup(g, d) {
			nk := int64(plan.NewKeysIn(g, d, o0, o1))
			readBytes += float64(nk)*fvb + dev.HotReadEquivalent(float64(missIdx-nk)*fvb)
			streamBytes += float64(nk) * fvb
		} else {
			readBytes += float64(missIdx) * fvb
		}
		items += missVecs
		if coll {
			streamBytes += float64(missVecs) * fvb
		} else {
			issues += missVecs
		}
	}
	hitVecs, hitIdx := plan.ConsumerChunkHits(bd.Summary, g, s0, s1)
	readBytes += dev.HotReadEquivalent(float64(hitIdx) * fvb)
	streamBytes += float64(chunkIdx+hitIdx)*8 + float64(hitVecs)*fvb
	items += hitVecs
	return dev.GatherKernelChunkCost(readBytes, streamBytes, items, kernelItems) +
		dev.RemoteIssueCost(issues) +
		sim.Duration(pgasPeers)*dev.Params().RemotePeerChunkOverhead
}

// functionalChunk streams the chunk's store-routed outputs exactly like
// PGASFused.functionalChunk; collective-routed pairs are skipped here and
// packed into send segments after the kernel instead.
func (b *Hybrid) functionalChunk(s *System, g int, bd *BatchData, s0, s1 int, scratch []float32, cursors, nodeCursors []int) {
	cfg := s.Cfg
	plan := bd.Plan
	view := plan.Cache
	dv := plan.Dedup
	pe := s.PGAS.PE(g)
	part := bd.Parts[g]
	coll := s.colls[g]
	for smp := s0; smp < s1; smp++ {
		consumer := sparse.OwnerOfSample(cfg.BatchSize, cfg.GPUs, smp)
		clo, _ := s.Minibatch(consumer)
		switch plan.Class(g, consumer) {
		case RouteNodeWire:
			node := s.nodeOf(consumer)
			nlo, _ := s.nodeSampleRange(node)
			n := int(dv.NodeNewAt[g][node][smp-nlo])
			if n == 0 {
				continue
			}
			cur := nodeCursors[node]
			stage := bd.NodeStage[g][node]
			keys := dv.NodeKeys[g][node]
			lane := s.PGAS.PE(s.stageGPU(g, node))
			for i := 0; i < n; i++ {
				key := keys[cur+i]
				fi := int(key >> 32)
				row := int(uint32(key))
				w := coll.Tables[fi].Weights.Data()
				pe.PutFloat32s(lane, stage[(cur+i)*cfg.Dim:(cur+i+1)*cfg.Dim], w[row*cfg.Dim:(row+1)*cfg.Dim])
			}
			nodeCursors[node] = cur + n
		case RouteWire:
			if b.routeCollective(s, plan, g, consumer) {
				continue // the all-to-all carries this pair's unique rows
			}
			n := int(dv.NewAt[g][consumer][smp-clo])
			if n == 0 {
				continue
			}
			cur := cursors[consumer]
			stage := bd.DedupStage[g][consumer]
			keys := dv.Keys[g][consumer]
			for i := 0; i < n; i++ {
				key := keys[cur+i]
				fi := int(key >> 32)
				row := int(uint32(key))
				w := coll.Tables[fi].Weights.Data()
				pe.PutFloat32s(s.PGAS.PE(consumer), stage[(cur+i)*cfg.Dim:(cur+i+1)*cfg.Dim], w[row*cfg.Dim:(row+1)*cfg.Dim])
			}
			cursors[consumer] = cur + n
		default:
			if consumer != g && b.routeCollective(s, plan, g, consumer) {
				continue // packed into the send buffer after the kernel
			}
			dstData := bd.Final[consumer].Data()
			for fi := range part.Features {
				if view != nil && view.Hit[g][fi*cfg.BatchSize+smp] {
					continue
				}
				fb := &part.Features[fi]
				coll.Tables[fi].LookupPooled(fb.Bag(smp), coll.Mode, scratch)
				off := ((smp-clo)*cfg.TotalTables + fb.FeatureID) * cfg.Dim
				pe.PutFloat32s(s.PGAS.PE(consumer), dstData[off:off+cfg.Dim], scratch)
			}
		}
	}
}

// functionalUnpack lands the collective's arrivals — expanding wire segments
// and copying dense ones — and expands the PGAS-staged wire pairings. Dense
// store-routed traffic already sits at its final addresses.
func (b *Hybrid) functionalUnpack(s *System, g int, recvBuf []float32, bd *BatchData) {
	cfg := s.Cfg
	plan := bd.Plan
	view := plan.Cache
	dv := plan.Dedup
	dst := bd.Final[g].Data()
	lo, hi := s.Minibatch(g)
	mini := hi - lo
	myNode := s.nodeOf(g)
	at := 0
	for src := 0; src < cfg.GPUs; src++ {
		if src == g {
			continue
		}
		if b.routeCollective(s, plan, src, g) {
			if plan.CollectiveClass(src, g) == RouteWire {
				rows := recvBuf[at : at+int(dv.Uniq[src][g])*cfg.Dim]
				at += len(rows)
				s.functionalExpand(g, src, rows, dv.Expand[src][g], bd.Summary, view, dst)
				continue
			}
			// Dense segment: same sample-major, miss-only order it was packed in.
			fsrc := s.LocalTables(src)
			var hitRow []bool
			if view != nil {
				hitRow = view.Hit[src]
			}
			for smp := 0; smp < mini; smp++ {
				for fi := 0; fi < fsrc; fi++ {
					if hitRow != nil && hitRow[fi*cfg.BatchSize+lo+smp] {
						continue
					}
					globalFID := s.Plan[src][fi]
					to := dst[(smp*cfg.TotalTables+globalFID)*cfg.Dim:]
					copy(to[:cfg.Dim], recvBuf[at:at+cfg.Dim])
					at += cfg.Dim
				}
			}
			continue
		}
		switch plan.Class(src, g) {
		case RouteNodeWire:
			s.functionalExpand(g, src, bd.NodeStage[src][myNode], dv.NodeExpand[src][g], bd.Summary, view, dst)
		case RouteWire:
			s.functionalExpand(g, src, bd.DedupStage[src][g], dv.Expand[src][g], bd.Summary, view, dst)
		}
	}
}
