package dlrm

import (
	"context"
	"fmt"

	"pgasemb/internal/gpu"
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

	// denseGen draws the dense inputs of functional runs.
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
	cfg = spec.Config()
	model, err := NewModel(DefaultModelConfig(cfg.TotalTables, cfg.Dim), cfg.Seed)
	if err != nil {
		return nil, err
	}
	return NewPipelineRun(spec, backend, model, cfg.Seed)
}

// NewPipelineRun wires one pipeline run on a fresh machine with a
// caller-owned model and an explicit run seed: one trained model can be
// shared (read-only) across any number of runs.
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
	return pipelineOn(sys, backend, model)
}

// On wires a pipeline of spec's batch shape onto pl's machine, sharing its
// model and backend (see retrieval.SystemSpec.NewRunOn): the serving layer
// runs every dispatch shape of a session this way.
func (pl *Pipeline) On(spec *retrieval.SystemSpec) (*Pipeline, error) {
	sys, err := spec.NewRunOn(pl.Sys)
	if err != nil {
		return nil, err
	}
	return pipelineOn(sys, pl.Backend, pl.Model)
}

func pipelineOn(sys *retrieval.System, backend retrieval.Backend, model *Model) (*Pipeline, error) {
	pl := &Pipeline{Sys: sys, Backend: backend, Model: model}
	if !sys.Cfg.Functional {
		return pl, nil
	}
	// A second generator over the same workload config supplies the dense
	// inputs of functional runs; its dense stream is independent of the
	// sparse draws, so it stays in sync with the retrieval system's batches.
	cfg := sys.Cfg
	gen, err := workload.NewGenerator(workload.Config{
		NumFeatures: cfg.TotalTables,
		BatchSize:   cfg.BatchSize,
		MinPooling:  cfg.MinPooling,
		MaxPooling:  cfg.MaxPooling,
		IndexSpace:  int64(cfg.Rows),
		NumDense:    model.Cfg.DenseFeatures,
		Seed:        cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	pl.denseGen = gen
	return pl, nil
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
//
// Every batch runs the same schedule on each GPU: the top MLP queued on the
// dense stream, the EMB retrieval driving the process, a rendezvous (the EMB
// layer is complete only once every GPU's one-sided stores have landed — the
// paper's Listing 2 synchronises all devices' streams for the same reason),
// then the interaction + bottom MLP tail once the top MLP is done, and the
// drive's lockstep barrier. At depth 1 the GPU drains the tail before the
// barrier. At depth d > 1 (software pipelining, inter-batch double
// buffering) the tail of batch N stays queued while the process moves on to
// batch N+1's exchange; a GPU keeps at most d tails queued, and the exchange
// gate tells collective backends where the dense stream's queue ends,
// because a collective kernel cannot overtake compute kernels launched
// before it — which is why the baseline overlaps only its pre-collective
// phases while one-sided stores (issued from inside the fused gather kernel)
// proceed immediately.
func (pl *Pipeline) RunContext(ctx context.Context) (*PipelineResult, error) {
	r := pl.newRun()
	last, err := pl.Sys.Drive(ctx, r.body)
	if err != nil {
		return nil, fmt.Errorf("dlrm: %s pipeline run: %w", pl.Backend.Name(), err)
	}
	return r.finish(pl.Sys.Env.Now(), last), nil
}

// Start is Run on a clock that is already running — the serving layer's
// per-dispatch form: it begins the pipeline's batches, drawn from seed, on
// the machine's clock (see retrieval.System.Start), and the returned flight's
// Done fires once the last batch has completed on every GPU. The flight
// hands the machine over once the last batch's EMB exchange is done on every
// GPU, so the next flight's exchange overlaps this one's dense path.
func (pl *Pipeline) Start(ctx context.Context, seed uint64) *retrieval.Flight {
	r := pl.newRun()
	r.exchanged = sim.NewSignal(pl.Sys.Env)
	f := pl.Sys.Start(ctx, seed, r.exchanged, r.body)
	if pl.denseGen != nil {
		pl.denseGen.Reseed(seed)
	}
	return f
}

// pipelineRun is one Run or Start's schedule state: each GPU's dense-path
// costs and accumulators, and the result they fill.
type pipelineRun struct {
	pl      *Pipeline
	res     PipelineResult
	gpus    []gpuState
	preds   []*tensor.Tensor
	embDone *sim.Barrier
	start   sim.Time
	depth   int
	n       int
	// exchanged, the handover of a Start flight, fires when the last
	// batch's EMB exchange is done on every GPU (nil for Run).
	exchanged *sim.Signal
}

type gpuState struct {
	dense              *gpu.Stream
	top, tail          sim.Duration
	lo, mini           int
	tailRing           []sim.Time // tail ends of the last depth batches, by batch mod depth
	embTime, denseTime sim.Duration
	bk                 trace.Breakdown
}

func (pl *Pipeline) newRun() *pipelineRun {
	s := pl.Sys
	cfg := s.Cfg
	r := &pipelineRun{
		pl:      pl,
		res:     PipelineResult{Backend: pl.Backend.Name()},
		gpus:    make([]gpuState, cfg.GPUs),
		embDone: sim.NewBarrier(s.Env, cfg.GPUs),
		start:   s.Env.Now(),
		depth:   s.PipelineDepth(),
		n:       cfg.Batches,
	}
	features := pl.Model.Cfg.NumSparse + 1
	for g := range r.gpus {
		dev := s.Devs[g]
		lo, hi := s.Minibatch(g)
		mini := hi - lo
		// The explicit float64 conversion rounds the product, so no
		// architecture fuses it into the add below.
		interFLOPs := float64(float64(mini) * float64(features*(features-1)/2) * float64(2*cfg.Dim))
		st := &r.gpus[g]
		st.dense = dev.Stream("dense")
		st.lo, st.mini = lo, mini
		// The dense path is priced once per run at the device's healthy
		// speed: straggler windows slow the EMB layer's kernels only.
		hp := dev.Params()
		st.top = hp.MLPKernelCost(pl.Model.Top.FLOPs(mini), pl.Model.Top.Bytes(mini))
		st.tail = hp.MLPKernelCost(
			interFLOPs+pl.Model.Bottom.FLOPs(mini),
			pl.Model.DensePathBytes(mini)-pl.Model.Top.Bytes(mini))
		if r.depth > 1 {
			st.tailRing = make([]sim.Time, r.depth)
		}
		st.denseTime = sim.Duration(r.n) * (st.top + st.tail)
	}
	if cfg.Functional {
		r.preds = make([]*tensor.Tensor, cfg.GPUs)
	}
	return r
}

// body runs batch i on GPU g.
func (r *pipelineRun) body(p *sim.Proc, g, i int, bd *retrieval.BatchData) {
	pl, s, res := r.pl, r.pl.Sys, &r.res
	functional := s.Cfg.Functional
	if functional && g == 0 {
		// GPU 0 draws the batch's dense input into res.LastDense. Every
		// GPU reads it only after embDone, which GPU 0 reaches after the
		// draw, and the lockstep drive starts no GPU on this batch
		// before all have finished the previous one.
		res.LastDense = pl.denseGen.NextDense()
	}
	st := &r.gpus[g]
	embStart := p.Now()
	// At depth 1 the stream has drained, so the gate is already open.
	s.SetExchangeGate(g, st.dense.BusyUntil())
	_, topEnd := st.dense.Launch(p, st.top)
	pl.Backend.RunBatch(s, p, g, bd, &st.bk)
	r.embDone.Await(p)
	st.embTime += p.Now() - embStart
	if r.exchanged != nil && i == r.n-1 && !r.exchanged.Fired() {
		r.exchanged.Fire()
	}
	if functional {
		denseMini := res.LastDense.Narrow(0, st.lo, st.mini).Contiguous()
		r.preds[g] = pl.Model.Forward(denseMini, bd.Final[g])
	}
	p.WaitUntil(topEnd)
	_, tailEnd := st.dense.Launch(p, st.tail)
	if r.depth > 1 && i+1 < r.n {
		st.tailRing[i%r.depth] = tailEnd
		p.WaitUntil(st.tailRing[(i+1)%r.depth])
		return
	}
	// The batch's own tail is the last kernel it waits for: a later
	// flight's kernels may already be queued behind it.
	p.WaitUntil(tailEnd)
	p.Wait(s.Devs[g].Params().StreamSync)
}

// finish summarises a run that ended at the given time with last as its
// final batch.
func (r *pipelineRun) finish(end sim.Time, last *retrieval.BatchData) *PipelineResult {
	res := &r.res
	res.TotalTime = end - r.start
	perGPU := make([]*trace.Breakdown, len(r.gpus))
	for g := range r.gpus {
		st := &r.gpus[g]
		perGPU[g] = &st.bk
		res.EMBTime = max(res.EMBTime, st.embTime)
		res.DenseTime = max(res.DenseTime, st.denseTime)
	}
	if stall := res.TotalTime - res.DenseTime; stall > 0 {
		res.EMBStall = stall
	}
	res.EMBBreakdown = trace.MergeMax(perGPU...)
	res.Predictions = r.preds
	if r.pl.Sys.Cfg.Functional {
		res.LastSparse = last.Sparse
	}
	return res
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
