package dlrm

import (
	"context"
	"fmt"

	"pgasemb/internal/retrieval"
	"pgasemb/internal/sim"
	"pgasemb/internal/trace"
)

// Trainer times full DLRM training steps: the EMB forward pass, the dense
// forward+backward (data-parallel, modelled as compute cost plus a gradient
// all-reduce), and the EMB backward pass — the end-to-end context for the
// paper's future-work claim that PGAS one-sided messages help
// backpropagation even more than inference, because the gradient exchange
// adds rounds of collectives and synchronisation that one-sided atomics
// remove.
type Trainer struct {
	Sys      *retrieval.System
	Forward  retrieval.Backend
	Backward retrieval.Backend
	Model    *Model
}

// NewTrainer wires a trainer for the given retrieval configuration. Forward
// and Backward select the EMB communication scheme for each direction
// (mixing is allowed — e.g. collective forward with PGAS backward).
func NewTrainer(cfg retrieval.Config, hw retrieval.HardwareParams, fwd, bwd retrieval.Backend) (*Trainer, error) {
	spec, err := retrieval.NewSystemSpec(cfg, hw)
	if err != nil {
		return nil, err
	}
	return NewTrainerFromSpec(spec, fwd, bwd)
}

// NewTrainerFromSpec wires a trainer run from an existing immutable spec —
// the entry point for executing many training runs of one configuration
// concurrently.
func NewTrainerFromSpec(spec *retrieval.SystemSpec, fwd, bwd retrieval.Backend) (*Trainer, error) {
	cfg := spec.Config()
	sys, err := spec.NewRun()
	if err != nil {
		return nil, err
	}
	model, err := NewModel(DefaultModelConfig(cfg.TotalTables, cfg.Dim), cfg.Seed)
	if err != nil {
		return nil, err
	}
	return &Trainer{Sys: sys, Forward: fwd, Backward: bwd, Model: model}, nil
}

// TrainResult summarises a timed training run.
type TrainResult struct {
	ForwardName  string
	BackwardName string
	// TotalTime is end-to-end time across all steps.
	TotalTime sim.Duration
	// EMBForward and EMBBackward accumulate the two EMB segments
	// (slowest GPU per step).
	EMBForward  sim.Duration
	EMBBackward sim.Duration
	// Breakdown merges every component recorded by both EMB backends.
	Breakdown *trace.Breakdown
}

// Run executes cfg.Batches training steps.
func (tr *Trainer) Run() (*TrainResult, error) {
	return tr.RunContext(context.Background())
}

// RunContext is Run with cancellation: the run stops with ctx.Err() when ctx
// is cancelled or its deadline passes. A cancelled trainer is left
// mid-simulation and must be discarded.
func (tr *Trainer) RunContext(ctx context.Context) (*TrainResult, error) {
	s := tr.Sys
	cfg := s.Cfg
	res := &TrainResult{ForwardName: tr.Forward.Name(), BackwardName: tr.Backward.Name()}

	perGPU := make([]*trace.Breakdown, cfg.GPUs)
	for g := range perGPU {
		perGPU[g] = &trace.Breakdown{}
	}
	fwdTime := make([]sim.Duration, cfg.GPUs)
	bwdTime := make([]sim.Duration, cfg.GPUs)

	batches := make([]*retrieval.BatchData, cfg.Batches)
	for i := range batches {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		bd, err := s.NextBatchData()
		if err != nil {
			return nil, err
		}
		batches[i] = bd
	}

	barrier := sim.NewBarrier(s.Env, cfg.GPUs)
	var runErr error
	start := s.Env.Now()
	for g := 0; g < cfg.GPUs; g++ {
		g := g
		s.Env.Go(fmt.Sprintf("gpu%d", g), func(p *sim.Proc) {
			defer func() {
				if r := recover(); r != nil && runErr == nil {
					runErr = fmt.Errorf("dlrm: trainer GPU %d: %v", g, r)
				}
			}()
			dev := s.Devs[g]
			denseStream := dev.NewStream("dense-train")
			lo, hi := s.Minibatch(g)
			mini := hi - lo
			// Dense path costs: forward plus backward ~2x forward FLOPs,
			// and a data-parallel gradient all-reduce over the MLP weights.
			denseFwd := dev.MLPKernelCost(tr.Model.DensePathFLOPs(mini), tr.Model.DensePathBytes(mini))
			denseBwd := 2 * denseFwd
			var mlpParams int
			for _, mlp := range []*MLP{tr.Model.Top, tr.Model.Bottom} {
				for _, l := range mlp.Layers {
					mlpParams += l.In*l.Out + l.Out
				}
			}
			for _, bd := range batches {
				barrier.Await(p)

				// EMB forward, concurrent with the dense forward.
				t0 := p.Now()
				_, denseEnd := denseStream.Launch(p, denseFwd)
				tr.Forward.RunBatch(s, p, g, bd, perGPU[g])
				barrier.Await(p) // EMB outputs complete on every GPU
				fwdTime[g] += p.Now() - t0
				p.WaitUntil(denseEnd)

				// Dense backward + MLP gradient all-reduce (data parallel;
				// bulk-synchronous entry like every collective).
				_, dbEnd := denseStream.Launch(p, denseBwd)
				p.WaitUntil(dbEnd)
				barrier.Await(p)
				p.Wait(allReduceTime(s, g, 4*float64(mlpParams)))

				// EMB backward.
				t1 := p.Now()
				tr.Backward.RunBatch(s, p, g, bd, perGPU[g])
				barrier.Await(p) // gradient pushes complete everywhere
				bwdTime[g] += p.Now() - t1
			}
			barrier.Await(p)
		})
	}
	if _, err := s.Env.RunContext(ctx); err != nil {
		return nil, fmt.Errorf("dlrm: %s/%s training run: %w", tr.Forward.Name(), tr.Backward.Name(), err)
	}
	if runErr != nil {
		return nil, runErr
	}
	res.TotalTime = s.Env.Now() - start
	for g := 0; g < cfg.GPUs; g++ {
		if fwdTime[g] > res.EMBForward {
			res.EMBForward = fwdTime[g]
		}
		if bwdTime[g] > res.EMBBackward {
			res.EMBBackward = bwdTime[g]
		}
	}
	res.Breakdown = trace.MergeMax(perGPU...)
	return res, nil
}

// allReduceTime estimates the ring all-reduce time for the MLP gradients
// without moving functional data.
func allReduceTime(s *retrieval.System, g int, bytes float64) sim.Duration {
	n := s.Cfg.GPUs
	if n == 1 {
		return 0
	}
	next := (g + 1) % n
	bw := s.Fab.PairBandwidth(g, next)
	if cb := s.HW.Collective.ChannelBandwidth; cb < bw {
		bw = cb
	}
	shard := bytes / float64(n)
	return sim.Duration(2*(n-1)) * sim.Duration(shard/bw)
}
