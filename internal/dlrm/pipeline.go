package dlrm

import (
	"context"
	"fmt"

	"pgasemb/internal/retrieval"
	"pgasemb/internal/sim"
	"pgasemb/internal/sparse"
	"pgasemb/internal/tensor"
	"pgasemb/internal/trace"
	"pgasemb/internal/workload"
)

// Pipeline runs full DLRM inference on the simulated machine: the dense
// path (top MLP) executes data-parallel and concurrently with the
// model-parallel EMB retrieval (Figure 4), then the interaction layer and
// bottom MLP consume the gathered embeddings. The EMB segment — retrieval
// plus its communication and unpacking — is measured separately, which is
// exactly what the paper reports.
type Pipeline struct {
	Sys     *retrieval.System
	Backend retrieval.Backend
	Model   *Model

	denseGen *workload.Generator
}

// NewPipeline wires a pipeline for the given retrieval configuration and
// backend. The model's NumSparse/EmbDim must agree with the retrieval
// configuration, so they are derived from it.
func NewPipeline(cfg retrieval.Config, hw retrieval.HardwareParams, backend retrieval.Backend) (*Pipeline, error) {
	spec, err := retrieval.NewSystemSpec(cfg, hw)
	if err != nil {
		return nil, err
	}
	return NewPipelineFromSpec(spec, backend)
}

// NewPipelineFromSpec wires a pipeline run from an existing immutable spec —
// the entry point for executing many pipeline runs of one configuration
// concurrently.
func NewPipelineFromSpec(spec *retrieval.SystemSpec, backend retrieval.Backend) (*Pipeline, error) {
	cfg := spec.Config()
	model, err := NewModel(DefaultModelConfig(cfg.TotalTables, cfg.Dim), cfg.Seed)
	if err != nil {
		return nil, err
	}
	return NewPipelineRun(spec, backend, model, cfg.Seed)
}

// NewPipelineRun wires one pipeline run with a caller-owned model and an
// explicit run seed — the serving layer's entry point: one trained model is
// shared (read-only) across every dispatched request batch, while each
// dispatch gets its own workload seed.
func NewPipelineRun(spec *retrieval.SystemSpec, backend retrieval.Backend, model *Model, seed uint64) (*Pipeline, error) {
	cfg := spec.Config()
	if model.Cfg.NumSparse != cfg.TotalTables || model.Cfg.EmbDim != cfg.Dim {
		return nil, fmt.Errorf("dlrm: model shape (%d sparse, dim %d) does not match configuration (%d, %d)",
			model.Cfg.NumSparse, model.Cfg.EmbDim, cfg.TotalTables, cfg.Dim)
	}
	sys, err := spec.NewRunWithSeed(seed)
	if err != nil {
		return nil, err
	}
	// A second generator over the same workload config supplies the dense
	// inputs; its dense stream is independent of the sparse draws, so it
	// stays in sync with the retrieval system's batches.
	gen, err := workload.NewGenerator(workload.Config{
		NumFeatures: cfg.TotalTables,
		BatchSize:   cfg.BatchSize,
		MinPooling:  cfg.MinPooling,
		MaxPooling:  cfg.MaxPooling,
		IndexSpace:  int64(cfg.Rows),
		NumDense:    model.Cfg.DenseFeatures,
		Seed:        seed,
	})
	if err != nil {
		return nil, err
	}
	return &Pipeline{Sys: sys, Backend: backend, Model: model, denseGen: gen}, nil
}

// PipelineResult summarises a timed inference run.
type PipelineResult struct {
	Backend string
	// TotalTime is end-to-end inference time across all batches.
	TotalTime sim.Duration
	// EMBTime accumulates the EMB-layer segment (retrieval + communication
	// + unpack), the paper's reported quantity.
	EMBTime sim.Duration
	// DenseTime is the slowest GPU's accumulated dense-path kernel time
	// (top MLP + interaction/bottom MLP). It is a property of the model and
	// batch shape, identical at every pipeline depth — the floor the
	// pipelined schedule compresses the run toward.
	DenseTime sim.Duration
	// EMBStall is the EMB-visible stall: the part of the end-to-end time
	// not covered by dense compute, max(0, TotalTime-DenseTime). Deeper
	// pipelining can only shrink it (never grow it) for one-sided backends.
	EMBStall sim.Duration
	// EMBBreakdown is the slowest-GPU component view of the EMB segment.
	EMBBreakdown *trace.Breakdown
	// Predictions holds the last batch's per-GPU (minibatch, 1)
	// probabilities (functional mode).
	Predictions []*tensor.Tensor
	// LastSparse and LastDense are the last batch's inputs (functional
	// mode), for verification against ReferencePredictions.
	LastSparse *sparse.Batch
	LastDense  *tensor.Tensor
}

// Run executes the configured number of inference batches.
func (pl *Pipeline) Run() (*PipelineResult, error) {
	return pl.RunContext(context.Background())
}

// RunContext is Run with cancellation: the run stops with ctx.Err() when ctx
// is cancelled or its deadline passes. A cancelled pipeline is left
// mid-simulation and must be discarded.
func (pl *Pipeline) RunContext(ctx context.Context) (*PipelineResult, error) {
	s := pl.Sys
	cfg := s.Cfg
	res := &PipelineResult{Backend: pl.Backend.Name()}

	perGPU := make([]*trace.Breakdown, cfg.GPUs)
	for g := range perGPU {
		perGPU[g] = &trace.Breakdown{}
	}
	embEnd := make([]sim.Duration, cfg.GPUs)

	type batchIn struct {
		bd    *retrieval.BatchData
		dense *tensor.Tensor
	}
	batches := make([]batchIn, cfg.Batches)
	for i := range batches {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		bd, err := s.NextBatchData()
		if err != nil {
			return nil, err
		}
		batches[i] = batchIn{bd: bd, dense: pl.denseGen.NextDense()}
	}

	barrier := sim.NewBarrier(s.Env, cfg.GPUs)
	depth := s.PipelineDepth()
	denseEnd := make([]sim.Duration, cfg.GPUs)
	var preds []*tensor.Tensor
	if cfg.Functional {
		preds = make([]*tensor.Tensor, cfg.GPUs)
	}
	var runErr error
	start := s.Env.Now()
	for g := 0; g < cfg.GPUs; g++ {
		g := g
		s.Env.Go(fmt.Sprintf("gpu%d", g), func(p *sim.Proc) {
			defer func() {
				if r := recover(); r != nil && runErr == nil {
					runErr = fmt.Errorf("dlrm: GPU %d: %v", g, r)
				}
			}()
			dev := s.Devs[g]
			denseStream := dev.NewStream("dense")
			lo, hi := s.Minibatch(g)
			mini := hi - lo
			topCost := dev.MLPKernelCost(pl.Model.Top.FLOPs(mini), pl.Model.Top.Bytes(mini))
			features := pl.Model.Cfg.NumSparse + 1
			interFLOPs := float64(mini) * float64(features*(features-1)/2) * float64(2*cfg.Dim)
			tailCost := dev.MLPKernelCost(
				interFLOPs+pl.Model.Bottom.FLOPs(mini),
				pl.Model.DensePathBytes(mini)-pl.Model.Top.Bytes(mini))
			denseEnd[g] = sim.Duration(len(batches)) * (topCost + tailCost)

			if depth > 1 {
				// Software-pipelined schedule (inter-batch double buffering):
				// the interaction + bottom MLP of batch N stays queued on the
				// dense stream while this process moves on to batch N+1's EMB
				// exchange in the next staging slot. A slot is reused only
				// once its previous occupant's tail has drained (the ring
				// wait below); the exchange gate tells collective backends
				// where the dense stream's queue ends, because a collective
				// kernel cannot overtake compute kernels launched before it —
				// which is why the baseline overlaps only its pre-collective
				// phases while one-sided stores (issued from inside the fused
				// gather kernel) proceed immediately.
				tailRing := make([]sim.Time, depth)
				var lastTail sim.Time
				for _, in := range batches {
					p.WaitUntil(tailRing[in.bd.Slot])
					barrier.Await(p)
					embStart := p.Now()
					s.SetExchangeGate(g, denseStream.BusyUntil())
					_, topEnd := denseStream.Launch(p, topCost)
					pl.Backend.RunBatch(s, p, g, in.bd, perGPU[g])
					barrier.Await(p)
					embEnd[g] += p.Now() - embStart
					if cfg.Functional {
						denseMini := in.dense.Narrow(0, lo, mini).Contiguous()
						preds[g] = pl.Model.Forward(denseMini, in.bd.Final[g])
					}
					p.WaitUntil(topEnd)
					_, tailEnd := denseStream.Launch(p, tailCost)
					tailRing[in.bd.Slot] = tailEnd
					lastTail = tailEnd
				}
				p.WaitUntil(lastTail)
				denseStream.Synchronize(p)
				barrier.Await(p)
				return
			}

			for bi, in := range batches {
				barrier.Await(p)
				s.ApplyFaults(bi)
				// Dense path and EMB retrieval run concurrently (Figure 4):
				// the top MLP is queued on its own stream, then the EMB
				// backend drives this process.
				embStart := p.Now()
				_, topEnd := denseStream.Launch(p, topCost)
				pl.Backend.RunBatch(s, p, g, in.bd, perGPU[g])
				// The EMB layer is only complete once EVERY GPU's one-sided
				// stores have landed: quiet covers a GPU's own sends, so the
				// consumers must rendezvous before touching the gathered
				// embeddings (the paper's Listing 2 synchronises all
				// devices' streams for the same reason).
				barrier.Await(p)
				embEnd[g] += p.Now() - embStart
				p.WaitUntil(topEnd)
				// Interaction + bottom MLP consume the gathered minibatch.
				_, tailEnd := denseStream.Launch(p, tailCost)
				p.WaitUntil(tailEnd)
				denseStream.Synchronize(p)

				if cfg.Functional {
					denseMini := in.dense.Narrow(0, lo, mini).Contiguous()
					preds[g] = pl.Model.Forward(denseMini, in.bd.Final[g])
				}
			}
			barrier.Await(p)
		})
	}
	if _, err := s.Env.RunContext(ctx); err != nil {
		return nil, fmt.Errorf("dlrm: %s pipeline run: %w", pl.Backend.Name(), err)
	}
	if runErr != nil {
		return nil, runErr
	}
	res.TotalTime = s.Env.Now() - start
	for g := 0; g < cfg.GPUs; g++ {
		if embEnd[g] > res.EMBTime {
			res.EMBTime = embEnd[g]
		}
		if denseEnd[g] > res.DenseTime {
			res.DenseTime = denseEnd[g]
		}
	}
	if stall := res.TotalTime - res.DenseTime; stall > 0 {
		res.EMBStall = stall
	}
	res.EMBBreakdown = trace.MergeMax(perGPU...)
	res.Predictions = preds
	if cfg.Functional && len(batches) > 0 {
		last := batches[len(batches)-1]
		res.LastSparse = last.bd.Sparse
		res.LastDense = last.dense
	}
	return res, nil
}

// ReferencePredictions computes single-device predictions for a batch:
// the serial EMB reference feeding the same model. Used to verify the
// multi-GPU pipeline end to end. It errors on a timing-only pipeline.
func ReferencePredictions(pl *Pipeline, batch *sparse.Batch, dense *tensor.Tensor) (*tensor.Tensor, error) {
	s := pl.Sys
	refs, err := retrieval.Reference(s, batch)
	if err != nil {
		return nil, err
	}
	parts := make([]*tensor.Tensor, s.Cfg.GPUs)
	for g := range refs {
		lo, hi := s.Minibatch(g)
		denseMini := dense.Narrow(0, lo, hi-lo).Contiguous()
		parts[g] = pl.Model.Forward(denseMini, refs[g])
	}
	// Stitch minibatch predictions back into batch order.
	out := tensor.New(s.Cfg.BatchSize, 1)
	od := out.Data()
	at := 0
	for _, part := range parts {
		copy(od[at:], part.Data())
		at += part.Dim(0)
	}
	return out, nil
}
