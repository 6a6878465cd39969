package retrieval

import (
	"fmt"

	"pgasemb/internal/sim"
	"pgasemb/internal/sparse"
	"pgasemb/internal/tensor"
	"pgasemb/internal/trace"
)

// Component names used in result breakdowns (the bars of Figures 6 and 9).
const (
	CompComputation = "Computation"
	CompComm        = "Communication"
	CompSyncUnpack  = "Sync+Unpack"
	CompFused       = "Fused Kernel" // PGAS: compute + overlapped comm + quiet
)

// Baseline is the paper's §IV reference implementation: an
// EmbeddingBagCollection forward kernel, a stream synchronisation, an NCCL
// all_to_all_single, and the unpack/rearrangement of received segments into
// the data-parallel layout.
//
// DirectPlacement is the A1 ablation: the collective is kept, but received
// data is assumed to land directly in its final location (no unpack step),
// isolating how much of PGAS's win comes from unpack elimination alone.
type Baseline struct {
	DirectPlacement bool
}

// Name implements Backend.
func (b *Baseline) Name() string {
	if b.DirectPlacement {
		return "baseline-direct-placement"
	}
	return "baseline"
}

// CommTrace implements CommTracer: the baseline's traffic is entirely the
// collective's.
func (b *Baseline) CommTrace(s *System) *trace.VolumeTrace {
	return s.Comm.Volume()
}

func (b *Baseline) RunBatch(s *System, p *sim.Proc, g int, bd *BatchData, bk *trace.Breakdown) {
	if s.Cfg.Replicas > 1 {
		b.runReplicated(s, p, g, bd, bk)
		return
	}
	cfg := s.Cfg
	dev := s.Devs[g]
	stream := dev.Stream("emb")
	sc := s.scratchFor(g, bd)
	fg := s.LocalTables(g)
	lo, hi := s.Minibatch(g)
	mini := hi - lo

	// Hot-row cache discounts: vectors this owner skips (a hit at their
	// consumer) and vectors this consumer pools from its own cache. Both are
	// zero when the cache is disabled (plan.Cache == nil). All routing
	// decisions come from the batch's compiled plan; the views only supply
	// counts.
	plan := bd.Plan
	view := plan.Cache
	dv := plan.Dedup
	skipVecs, skipIdx := view.SkipFrom(g)
	hitVecs, hitIdx := view.HitAt(g)
	vb := float64(cfg.VectorBytes())

	// --- Phase 1: lookup + pooling kernel over the full batch of local
	// tables, writing every pooled vector into the rank-ordered send buffer —
	// minus skipped hit vectors, plus the consumer-side cache gathers (which
	// read the small hot working set at near-streaming efficiency).
	totalIdx := s.localIndexTotal(bd.Summary, g, 0, cfg.BatchSize) - skipIdx
	var kernel sim.Duration
	if dv == nil {
		readBytes := float64(totalIdx)*vb + // gathered table rows
			dev.HotReadEquivalent(float64(hitIdx)*vb) // gathered cached rows
		streamBytes := float64(totalIdx+hitIdx)*8 + // index reads
			float64(cfg.BatchSize*fg-skipVecs+hitVecs)*vb // output stores
		kernel = dev.GatherKernelCost(readBytes, streamBytes, cfg.BatchSize*fg-skipVecs+hitVecs)
	} else {
		// Deduplicated: decompose the kernel per destination pair. Wire pairs
		// gather and stage each unique row once (no pooling — the consumer
		// expands); gather-dedup pairs stage unique rows and serve duplicate
		// references from the hot working set; dense pairs keep the original
		// cost shape. The conservative index-stream term is unchanged.
		readBytes := dev.HotReadEquivalent(float64(hitIdx) * vb)
		streamBytes := float64(totalIdx+hitIdx)*8 + float64(hitVecs)*vb
		items := hitVecs
		for d := 0; d < cfg.GPUs; d++ {
			missIdx := dv.MissIdx[g][d]
			uniq := dv.Uniq[g][d]
			dense := int(dv.DenseVecs[g][d])
			switch {
			case plan.CollectiveClass(g, d) == RouteWire:
				readBytes += float64(uniq) * vb
				streamBytes += float64(uniq) * vb
				items += int(uniq)
			case plan.GatherDedup(g, d):
				readBytes += float64(uniq)*vb + dev.HotReadEquivalent(float64(missIdx-uniq)*vb)
				streamBytes += float64(dense+int(uniq)) * vb
				items += dense
			default:
				readBytes += float64(missIdx) * vb
				streamBytes += float64(dense) * vb
				items += dense
			}
		}
		kernel = dev.GatherKernelCost(readBytes, streamBytes, items)
	}

	var outputs *tensor.Tensor
	if cfg.Functional {
		// Collection.Forward produces (B, F_local, d) sample-major — with
		// contiguous minibatches this IS the rank-ordered all-to-all send
		// layout. (Mode is validated at run setup, so the shard exists.)
		outputs = s.colls[g].Forward(bd.Parts[g])
	}
	_, kernelEnd := stream.Launch(p, kernel)
	p.WaitUntil(kernelEnd)
	bk.Accumulate(CompComputation, kernel+dev.Params().KernelLaunch)

	// Host-side synchronisation before the collective can be issued.
	syncStart := p.Now()
	stream.Synchronize(p)
	bk.Accumulate(CompSyncUnpack, p.Now()-syncStart)

	if cfg.GPUs == 1 {
		if cfg.Functional {
			// Single GPU: outputs are already the final minibatch, just in
			// (B, F_local, d) layout == (mini, TotalTables, d).
			bd.Final[g].CopyFrom(outputs.Reshape(mini, cfg.TotalTables, cfg.Dim))
		}
		return
	}

	// Owner-side wire encode: compress every off-diagonal segment before the
	// collective ships it. A pure streaming kernel priced from the plan's
	// counts, so timing and functional runs charge identically.
	if cfg.WireCodecActive() {
		encStart := p.Now()
		sent, _ := plan.CollectiveCodecVecs(g)
		if sent > 0 {
			wvb := float64(cfg.WireVectorBytes())
			enc := dev.EncodeKernelCost(float64(sent)*vb, float64(sent)*wvb)
			_, encEnd := stream.Launch(p, enc)
			p.WaitUntil(encEnd)
			stream.Synchronize(p)
		}
		bk.Accumulate(CompComputation, p.Now()-encStart)
	}

	// --- Phase 2: all_to_all_single. Segment for dst = dst's minibatch
	// rows of the local outputs. The collective is stream-ordered: under a
	// pipelined schedule it cannot launch past dense kernels already queued
	// on the compute stream (the exchange gate), which is why the baseline
	// overlaps only its pre-collective phases with the previous batch's
	// dense compute.
	commStart := p.Now()
	s.awaitExchangeGate(p, g)
	var recvBuf []float32
	if cfg.Functional {
		sendSegs := scratchSlice(&sc.sendSegs, cfg.GPUs)
		recvSegs := scratchSlice(&sc.recvSegs, cfg.GPUs)
		out := outputs.Data()
		rowFloats := fg * cfg.Dim
		// Receive-segment sizes: wire sources ship unique rows, dense sources
		// ship miss vectors; pack-buffer demand covers every packed send.
		recvFloats, packFloats := 0, 0
		for peer := 0; peer < cfg.GPUs; peer++ {
			recvFloats += plan.CollectiveVecs(peer, g) * cfg.Dim
			if peer == g {
				continue
			}
			if plan.CollectiveClass(g, peer) == RouteWire {
				packFloats += int(dv.Uniq[g][peer]) * cfg.Dim
			} else if view != nil {
				packFloats += plan.CollectiveVecs(g, peer) * cfg.Dim
			}
		}
		recvBuf = scratchSlice(&sc.recvBuf, recvFloats)
		pack := scratchSlice(&sc.packBuf, packFloats)
		packAt := 0
		at := 0
		for peer := 0; peer < cfg.GPUs; peer++ {
			plo, phi := s.Minibatch(peer)
			switch {
			case plan.CollectiveClass(g, peer) == RouteWire:
				// Wire dedup: gather each of the pair's unique rows once, in
				// first-seen order; the consumer's expansion map addresses
				// them by position.
				seg := pack[packAt : packAt+int(dv.Uniq[g][peer])*cfg.Dim]
				packAt += len(seg)
				for i, key := range dv.Keys[g][peer] {
					fi := int(key >> 32)
					row := int(uint32(key))
					w := s.colls[g].Tables[fi].Weights.Data()
					copy(seg[i*cfg.Dim:(i+1)*cfg.Dim], w[row*cfg.Dim:(row+1)*cfg.Dim])
				}
				sendSegs[peer] = seg
			case view == nil || peer == g:
				sendSegs[peer] = out[plo*rowFloats : phi*rowFloats]
			default:
				// Pack miss-only vectors in the same sample-major order the
				// contiguous slice would have carried.
				seg := pack[packAt:packAt]
				for smp := plo; smp < phi; smp++ {
					for fi := 0; fi < fg; fi++ {
						if view.Hit[g][fi*cfg.BatchSize+smp] {
							continue
						}
						off := (smp*fg + fi) * cfg.Dim
						seg = append(seg, out[off:off+cfg.Dim]...)
					}
				}
				packAt += len(seg)
				sendSegs[peer] = seg
			}
			vecs := plan.CollectiveVecs(peer, g)
			recvSegs[peer] = recvBuf[at : at+vecs*cfg.Dim]
			at += vecs * cfg.Dim
		}
		s.Comm.AllToAllSingle(p, g, sendSegs, recvSegs)
	} else {
		sendBytes := scratchSlice(&sc.sendBytes, cfg.GPUs)
		recvBytes := scratchSlice(&sc.recvBytes, cfg.GPUs)
		wvb := float64(cfg.WireVectorBytes())
		for peer := 0; peer < cfg.GPUs; peer++ {
			sendBytes[peer] = 0
			recvBytes[peer] = 0
			if peer == g {
				continue
			}
			sendBytes[peer] = float64(plan.CollectiveVecs(g, peer)) * wvb
			recvBytes[peer] = float64(plan.CollectiveVecs(peer, g)) * wvb
		}
		s.Comm.AllToAllSingleSizes(p, g, sendBytes, recvBytes)
	}
	bk.Accumulate(CompComm, p.Now()-commStart)

	// --- Phase 3: unpack the received rank-major segments into the
	// (mini, TotalTables, d) layout the interaction layer expects.
	unpackStart := p.Now()
	// Consumer-side wire decode: dequantize every received segment back to
	// fp32 before unpack/expansion. Runs under DirectPlacement too — the
	// ablation removes the rearrangement, not the dequantize.
	if cfg.WireCodecActive() {
		_, recv := plan.CollectiveCodecVecs(g)
		if recv > 0 {
			wvb := float64(cfg.WireVectorBytes())
			dec := dev.DecodeKernelCost(float64(recv)*wvb, float64(recv)*vb)
			_, decEnd := stream.Launch(p, dec)
			p.WaitUntil(decEnd)
			stream.Synchronize(p)
		}
	}
	if !b.DirectPlacement {
		if dv == nil {
			remoteBytes := float64(mini*(cfg.TotalTables-fg)-hitVecs) * vb
			unpack := dev.UnpackKernelCost(remoteBytes, cfg.GPUs-1)
			_, unpackEnd := stream.Launch(p, unpack)
			p.WaitUntil(unpackEnd)
			stream.Synchronize(p)
		} else {
			// Only dense incoming segments need the rearrangement kernel;
			// wire segments go through the expansion kernel below instead.
			// When every source deduplicated, the unpack launch (and its
			// fixed cost) disappears entirely.
			var remoteBytes float64
			segments := 0
			for src := 0; src < cfg.GPUs; src++ {
				if plan.CollectiveClass(src, g) != RouteDense {
					continue
				}
				remoteBytes += float64(dv.DenseVecs[src][g]) * vb
				segments++
			}
			if segments > 0 {
				unpack := dev.UnpackKernelCost(remoteBytes, segments)
				_, unpackEnd := stream.Launch(p, unpack)
				p.WaitUntil(unpackEnd)
				stream.Synchronize(p)
			}
		}
	}
	if dv != nil {
		// Inverse expansion of wire segments: every miss-bag reference
		// re-reads its unique row from the small received set (L2-resident),
		// pooling into the final vectors. Runs under DirectPlacement too —
		// expansion builds pooled outputs, it is not the rearrangement the
		// ablation removes.
		var refs int64
		outVecs := 0
		for src := 0; src < cfg.GPUs; src++ {
			if plan.CollectiveClass(src, g) != RouteWire {
				continue
			}
			refs += dv.MissIdx[src][g]
			outVecs += int(dv.DenseVecs[src][g])
		}
		if outVecs > 0 {
			expand := dev.ExpandKernelCost(refs, outVecs, cfg.VectorBytes())
			_, expandEnd := stream.Launch(p, expand)
			p.WaitUntil(expandEnd)
			stream.Synchronize(p)
		}
	}
	if cfg.Functional {
		b.functionalUnpack(s, g, mini, recvBuf, bd)
	}
	bk.Accumulate(CompSyncUnpack, p.Now()-unpackStart)
}

// functionalUnpack rearranges the received rank-major buffer
// [src][sample][srcLocalFeature][d] into final[sample][globalFeature][d],
// consuming the buffer sequentially and skipping cache-hit vectors (which
// never travelled — their final slots were pooled from the cache at
// classification time). Wire-deduplicated segments carry unique rows instead
// of vectors; those are expanded (re-pooled) in place. In the
// DirectPlacement ablation this copy models what a scattering NIC would have
// done; it costs no simulated time there.
func (b *Baseline) functionalUnpack(s *System, g, mini int, recvBuf []float32, bd *BatchData) {
	cfg := s.Cfg
	plan := bd.Plan
	view := plan.Cache
	dv := plan.Dedup
	final := bd.Final[g]
	lo, _ := s.Minibatch(g)
	dst := final.Data()
	at := 0
	for src := 0; src < cfg.GPUs; src++ {
		if plan.CollectiveClass(src, g) == RouteWire {
			rows := recvBuf[at : at+int(dv.Uniq[src][g])*cfg.Dim]
			at += len(rows)
			s.functionalExpand(g, src, rows, dv.Expand[src][g], bd.Summary, view, dst)
			continue
		}
		fsrc := s.LocalTables(src)
		var hitRow []bool
		if view != nil && src != g {
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
	}
}

// Reference computes the expected per-GPU EMB outputs serially: the full
// (B, TotalTables, d) result partitioned into per-GPU minibatches. Backends
// in functional mode must reproduce it bit-exactly. It errors on a
// timing-only system, which holds no weights.
func Reference(s *System, batch *sparse.Batch) ([]*tensor.Tensor, error) {
	cfg := s.Cfg
	if !cfg.Functional {
		return nil, fmt.Errorf("retrieval: Reference needs functional mode (timing-only systems hold no weights)")
	}
	full := tensor.New(cfg.BatchSize, cfg.TotalTables, cfg.Dim)
	data := full.Data()
	for g := 0; g < cfg.GPUs; g++ {
		coll := s.colls[g]
		for fi, fid := range s.Plan[g] {
			fb := batch.FeatureByID(fid)
			tbl := coll.Tables[fi]
			for smp := 0; smp < cfg.BatchSize; smp++ {
				off := (smp*cfg.TotalTables + fid) * cfg.Dim
				tbl.LookupPooled(fb.Bag(smp), coll.Mode, data[off:off+cfg.Dim])
			}
		}
	}
	outs := make([]*tensor.Tensor, cfg.GPUs)
	for g := 0; g < cfg.GPUs; g++ {
		lo, hi := s.Minibatch(g)
		outs[g] = full.Narrow(0, lo, hi-lo).Contiguous()
	}
	return outs, nil
}
