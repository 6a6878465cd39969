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

// RunBatch walks the (shard, consumer) pairs the batch's route plan has GPU
// g serving: without replication, its own shard to every consumer; with
// Config.Replicas, whatever pairs the plan assigned it — mirrored shards
// included. Segment sizes, codec counts and unpack work all come from the
// same per-pair counts.
func (b *Baseline) RunBatch(s *System, p *sim.Proc, g int, bd *BatchData, bk *trace.Breakdown) {
	cfg := s.Cfg
	dev := s.Devs[g]
	stream := dev.Stream("emb")

	// --- Phase 1: lookup + pooling kernel over every served pair, writing
	// each pair's segment into the rank-ordered send buffer, plus the
	// consumer-side cache and mirror gathers: the fused kernel's gather as
	// one chunk over the whole batch, under the collective's route rule.
	// Every remote item streams into the send buffer, and every segment, the
	// local one included, is one logged transfer. The hit read is added
	// before the pairs' (pgas-fused adds it after): float addition is not
	// associative, and these are the orders the pinned times were summed in.
	plan := bd.Plan
	vb := float64(cfg.VectorBytes())
	var gt gatherTraffic
	gt.addHits(s, g, plan, 0, cfg.BatchSize)
	gt.addPairs(s, g, plan, 0, cfg.BatchSize, plan.CollectiveClass, bd.log)
	kernel := dev.GatherKernelCost(gt.read, gt.stream+float64(float64(gt.remote)*vb), gt.items)

	_, kernelEnd := stream.Launch(p, kernel)
	p.WaitUntil(kernelEnd)
	bk.Accumulate(CompComputation, kernel+dev.Params().KernelLaunch)

	// Host-side synchronisation before the collective can be issued.
	syncStart := p.Now()
	stream.Synchronize(p)
	bk.Accumulate(CompSyncUnpack, p.Now()-syncStart)

	// On a single GPU the send buffer already is the final minibatch.
	if cfg.GPUs == 1 {
		s.walkDone(bd)
		return
	}

	// Sender-side wire encode: compress every segment served to a remote
	// consumer before the collective ships it. A pure streaming kernel priced
	// from the plan's counts.
	if cfg.WireCodecActive() {
		encStart := p.Now()
		sent, _ := plan.codecVecs(g, plan.CollectiveClass)
		if sent > 0 {
			wvb := float64(cfg.WireVectorBytes())
			enc := dev.EncodeKernelCost(float64(sent)*vb, float64(sent)*wvb)
			_, encEnd := stream.Launch(p, enc)
			p.WaitUntil(encEnd)
			stream.Synchronize(p)
		}
		bk.Accumulate(CompComputation, p.Now()-encStart)
	}

	// --- Phase 2: all_to_all_single. Segment for peer = every pair this GPU
	// serves peer, and the receive segment from peer every pair peer serves
	// this GPU. The collective is stream-ordered: under a pipelined schedule
	// it cannot launch past dense kernels already queued on the compute
	// stream (the exchange gate), which is why the baseline overlaps only its
	// pre-collective phases with the previous batch's dense compute.
	commStart := p.Now()
	s.awaitExchangeGate(p, g)
	s.exchangeSegments(p, g, bd)
	bk.Accumulate(CompComm, p.Now()-commStart)

	// --- Phase 3: unpack the received rank-major segments into the
	// (mini, TotalTables, d) layout the interaction layer expects.
	unpackStart := p.Now()
	// Consumer-side wire decode: dequantize every received segment back to
	// fp32 before unpack/expansion. Runs under DirectPlacement too — the
	// ablation removes the rearrangement, not the dequantize.
	if cfg.WireCodecActive() {
		_, recv := plan.codecVecs(g, plan.CollectiveClass)
		if recv > 0 {
			wvb := float64(cfg.WireVectorBytes())
			dec := dev.DecodeKernelCost(float64(recv)*wvb, float64(recv)*vb)
			_, decEnd := stream.Launch(p, dec)
			p.WaitUntil(decEnd)
			stream.Synchronize(p)
		}
	}
	if !b.DirectPlacement {
		// Every dense remotely served segment needs the rearrangement
		// kernel; wire segments go through the expansion kernel below
		// instead. When no peer serves this GPU a dense segment (all
		// mirrored locally, or every source deduplicated), the unpack launch
		// and its fixed cost disappear entirely.
		if remote, segments := plan.unpackWork(g, plan.CollectiveClass, false); segments > 0 {
			unpack := dev.UnpackKernelCost(float64(remote)*vb, segments)
			_, unpackEnd := stream.Launch(p, unpack)
			p.WaitUntil(unpackEnd)
			stream.Synchronize(p)
		}
	}
	// Inverse expansion of wire segments: every miss-bag reference re-reads
	// its unique row from the small received set (L2-resident), pooling into
	// the final vectors. Runs under DirectPlacement too — expansion builds
	// pooled outputs, it is not the rearrangement the ablation removes.
	if refs, outVecs := plan.expandWork(g, plan.CollectiveClass); outVecs > 0 {
		expand := dev.ExpandKernelCost(refs, outVecs, cfg.VectorBytes())
		_, expandEnd := stream.Launch(p, expand)
		p.WaitUntil(expandEnd)
		stream.Synchronize(p)
	}
	bk.Accumulate(CompSyncUnpack, p.Now()-unpackStart)
	s.walkDone(bd)
}

// exchangeSegments runs GPU g's all-to-all over the pairs it serves, priced
// from the plan's segment sizes.
func (s *System) exchangeSegments(p *sim.Proc, g int, bd *BatchData) {
	cfg := s.Cfg
	plan := bd.Plan
	sc := &s.scratch[g]
	sendBytes := scratchSlice(&sc.sendBytes, cfg.GPUs)
	recvBytes := scratchSlice(&sc.recvBytes, cfg.GPUs)
	wvb := float64(cfg.WireVectorBytes())
	for peer := 0; peer < cfg.GPUs; peer++ {
		sendBytes[peer] = 0
		recvBytes[peer] = 0
		if peer == g {
			continue
		}
		sendBytes[peer] = float64(plan.segmentVecs(g, peer)) * wvb
		recvBytes[peer] = float64(plan.segmentVecs(peer, g)) * wvb
	}
	s.Comm.AllToAllSingleSizes(p, g, sendBytes, recvBytes)
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
				tbl.LookupPooled(fb.Bag(smp), data[off:off+cfg.Dim])
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
