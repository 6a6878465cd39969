package retrieval

import (
	"pgasemb/internal/sim"
	"pgasemb/internal/sparse"
	"pgasemb/internal/trace"
)

// The backward-pass extension implements the paper's future-work proposal
// (§V): during backpropagation, each GPU holds the upstream gradients for
// its minibatch's EMB outputs and must deliver every (sample, feature)
// gradient vector to the GPU that owns that feature's table, where it
// accumulates into the rows the forward bag touched.
//
// BackwardBaseline models today's collective approach: gradients are staged
// into rank-ordered buffers and exchanged through multiple rounds of
// collective shifts — "embeddings are shifted to (received from) the next
// GPU" — with a synchronisation per round, then applied to the tables.
//
// BackwardPGAS replaces the rounds with one-sided remote atomic adds issued
// from inside the gradient kernel: each gradient vector leaves as soon as
// it is produced, overlapping with the local table update, and the rounds
// of synchronisation collapse into a single quiet + barrier — exactly the
// optimisation the paper predicts "can substantially reduce communication
// and synchronization time".

// Backward component names.
const (
	CompGradStage = "Grad Staging"
	CompGradShift = "Grad Shift Rounds"
	CompGradApply = "Grad Apply"
	CompGradFused = "Fused Grad Kernel"
	CompGradSync  = "Grad Sync"
)

// BackwardBaseline is the multi-round collective gradient exchange.
type BackwardBaseline struct{}

// Name implements Backend.
func (b *BackwardBaseline) Name() string { return "backward-baseline" }

// RunBatch implements Backend for the backward pass.
func (b *BackwardBaseline) RunBatch(s *System, p *sim.Proc, g int, bd *BatchData, bk *trace.Breakdown) {
	cfg := s.Cfg
	dev := s.Devs[g]
	stream := dev.NewStream("emb-bwd")
	fg := s.LocalTables(g)
	lo, hi := s.Minibatch(g)
	mini := hi - lo
	vecBytes := float64(cfg.VectorBytes())

	// --- Stage: reorder the upstream gradient (mini, F_total, d) into
	// rank-major send blocks. Pure memory traffic.
	stageBytes := 2 * float64(mini) * float64(cfg.TotalTables) * vecBytes
	stage := dev.CopyKernelCost(stageBytes)
	_, stageEnd := stream.Launch(p, stage)
	p.WaitUntil(stageEnd)
	stream.Synchronize(p)
	bk.Accumulate(CompGradStage, stage+dev.Params().KernelLaunch+dev.Params().StreamSync)

	if cfg.GPUs > 1 {
		// --- Shift rounds: P-1 collective steps. In round k, GPU g ships
		// the gradient block destined for rank (g-k mod P) to its ring
		// neighbour, receives the symmetric block, and accumulates it —
		// each round a collective call plus a synchronisation, the
		// overhead the paper's future-work section calls out.
		shiftStart := p.Now()
		for k := 1; k < cfg.GPUs; k++ {
			dst := ((g-k)%cfg.GPUs + cfg.GPUs) % cfg.GPUs
			blockBytes := float64(mini) * float64(s.LocalTables(dst)) * vecBytes
			sendBytes := make([]float64, cfg.GPUs)
			recvBytes := make([]float64, cfg.GPUs)
			next := (g + 1) % cfg.GPUs
			prev := ((g-1)%cfg.GPUs + cfg.GPUs) % cfg.GPUs
			sendBytes[next] = blockBytes
			src := (g + k) % cfg.GPUs
			recvBytes[prev] = float64(mini) * float64(s.LocalTables(src)) * vecBytes
			s.Comm.AllToAllSingleSizes(p, g, sendBytes, recvBytes)
			// Accumulate the received block into the running buffer.
			acc := dev.CopyKernelCost(1.5 * recvBytes[prev])
			_, accEnd := stream.Launch(p, acc)
			p.WaitUntil(accEnd)
			stream.Synchronize(p)
		}
		bk.Accumulate(CompGradShift, p.Now()-shiftStart)
	}

	// --- Apply: scatter-add the gathered gradients into the local tables.
	// Every index of every bag of every local feature receives its output
	// gradient: a read-modify-write per touched row.
	applyStart := p.Now()
	totalIdx := bd.Plan.localIndexTotal(g, 0, cfg.BatchSize)
	applyBytes := 2 * float64(totalIdx) * vecBytes
	apply := dev.GatherKernelCost(applyBytes, float64(totalIdx)*8, cfg.BatchSize*fg)
	_, applyEnd := stream.Launch(p, apply)
	p.WaitUntil(applyEnd)
	stream.Synchronize(p)
	bk.Accumulate(CompGradApply, p.Now()-applyStart)

	if cfg.Functional {
		applyGradients(s, g, bd)
	}
}

// BackwardPGAS is the one-sided atomic gradient push.
type BackwardPGAS struct{}

// Name implements Backend.
func (b *BackwardPGAS) Name() string { return "backward-pgas" }

// RunBatch implements Backend for the backward pass.
func (b *BackwardPGAS) RunBatch(s *System, p *sim.Proc, g int, bd *BatchData, bk *trace.Breakdown) {
	cfg := s.Cfg
	dev := s.Devs[g]
	stream := dev.NewStream("emb-bwd-fused")
	pe := s.PGAS.PE(g)
	pe.SetSlot(bd.Slot)
	fg := s.LocalTables(g)
	lo, hi := s.Minibatch(g)
	mini := hi - lo
	peers := cfg.GPUs - 1
	vecBytes := cfg.VectorBytes()

	batchStart := p.Now()
	p.Wait(dev.Params().KernelLaunch)

	// The fused gradient kernel walks this GPU's minibatch; each
	// (sample, feature) gradient vector is pushed as a one-sided atomic
	// add to the owner the moment it is read, overlapping with the local
	// table update for locally-owned features.
	totalIdx := bd.Plan.localIndexTotal(g, 0, cfg.BatchSize)
	// Local apply traffic: this GPU's tables are updated with gradients
	// from the FULL batch, pushed in by all peers; the update kernel is
	// the same scatter-add as the baseline's.
	applyBytes := 2 * float64(totalIdx) * float64(vecBytes)
	applyKernel := dev.GatherKernelCost(applyBytes, float64(totalIdx)*8, cfg.BatchSize*fg)
	chunks := cfg.ChunksPerKernel
	for k := 0; k < chunks; k++ {
		s0 := mini * k / chunks
		s1 := mini * (k + 1) / chunks
		if s0 == s1 {
			continue
		}
		frac := float64(s1-s0) / float64(mini)
		remoteVecs := (s1 - s0) * (cfg.TotalTables - fg)
		cost := applyKernel*frac +
			dev.RemoteIssueCost(remoteVecs) +
			sim.Duration(peers)*dev.Params().RemotePeerChunkOverhead
		p.Wait(cost)
		for peer := 0; peer < cfg.GPUs; peer++ {
			if peer == g {
				continue
			}
			vecs := (s1 - s0) * s.LocalTables(peer)
			pe.PutVectors(s.PGAS.PE(peer), vecs, vecBytes)
		}
	}
	pe.QuietSlot(p, bd.Slot)
	bk.Accumulate(CompGradFused, p.Now()-batchStart)

	syncStart := p.Now()
	stream.Synchronize(p)
	bk.Accumulate(CompGradSync, p.Now()-syncStart)

	if cfg.Functional {
		applyGradients(s, g, bd)
	}
}

// applyGradients performs the functional table update for GPU g: for every
// local feature, every sample's bag rows accumulate that sample's upstream
// gradient vector. Both backward schemes compute exactly this; they differ
// only in how the gradient vectors travel.
func applyGradients(s *System, g int, bd *BatchData) {
	cfg := s.Cfg
	coll := s.colls[g]
	part := bd.Parts[g]
	for fi := range part.Features {
		fb := &part.Features[fi]
		fid := fb.FeatureID
		tbl := coll.Tables[fi]
		for smp := 0; smp < cfg.BatchSize; smp++ {
			bag := fb.Bag(smp)
			if len(bag) == 0 {
				continue
			}
			owner := sparse.OwnerOfSample(cfg.BatchSize, cfg.GPUs, smp)
			olo, _ := s.Minibatch(owner)
			grad := bd.Grads[owner]
			gd := grad.Data()
			off := ((smp-olo)*cfg.TotalTables + fid) * cfg.Dim
			tbl.AccumulateGrad(bag, gd[off:off+cfg.Dim])
		}
	}
}
