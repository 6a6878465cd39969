package retrieval

import (
	"context"
	"fmt"
	"strconv"

	"pgasemb/internal/sim"
)

// BatchBody runs batch i, whose input is bd, on GPU g's simulated process.
type BatchBody func(p *sim.Proc, g, i int, bd *BatchData)

// Drive runs the run's Cfg.Batches batches through body on one simulated
// process per GPU — the one batch loop behind Run and the DLRM pipeline.
//
// GPUs meet at a sliding-window rendezvous of the given depth (sim.Window):
// depth 1 is the lockstep barrier, depth d lets a GPU run up to d-1 batches
// ahead of the slowest one. Batch i is drawn (NextBatchData) exactly once, in
// batch order, when the first GPU enters it, so at most depth batches are
// ever live. Depth runs from 1 to PipelineDepth: batches rotate through
// PipelineDepth resource slots, and a run with adaptive placement or a fault
// schedule has depth 1, so every GPU has finished the batches before a
// rebalance epoch when the plan swaps. A batch that opens an epoch is drawn
// only after the controller has rebalanced, so every route plan is compiled
// against the placement that runs it, and no GPU starts the batch before the
// migration traffic has landed. Drive returns the last batch once every GPU
// has finished it, or ctx.Err() if ctx ends first, or an error naming the GPU
// whose body panicked.
func (s *System) Drive(ctx context.Context, depth int, body BatchBody) (*BatchData, error) {
	if depth < 1 || depth > s.PipelineDepth() {
		return nil, fmt.Errorf("retrieval: drive depth %d outside 1..%d", depth, s.PipelineDepth())
	}
	l := &batchLoop{ctx: ctx, n: s.Cfg.Batches}
	if err := s.drive(l, depth, body); err != nil {
		return nil, err
	}
	return l.live[(l.n-1)%depth], nil
}

// batchLoop is one drive's batch source and the state its GPUs share.
type batchLoop struct {
	ctx context.Context
	n   int // batches to run
	// fixed, when non-nil, is cycled as the run's batches instead of
	// drawing fresh ones.
	fixed []*BatchData

	live  []*BatchData // batch i sits in live[i%depth]
	drawn int          // batches pulled so far
	ready sim.Time     // the last rebalance's migration end
	err   error        // the first pull error or panic
}

// pull makes batch i live. A batch that opens an adaptive-placement epoch is
// drawn after the rebalance, which moves ready to the end of its migration
// traffic.
func (l *batchLoop) pull(s *System, i int) error {
	if l.fixed != nil {
		l.live[i%len(l.live)] = l.fixed[i%len(l.fixed)]
		return nil
	}
	if err := l.ctx.Err(); err != nil {
		return err
	}
	if s.placementEnabled() && s.placeCtl.Due(i) {
		ready, err := s.rebalanceNow()
		if err != nil {
			return err
		}
		l.ready = ready
	}
	bd, err := s.NextBatchData()
	if err != nil {
		return err
	}
	l.live[i%len(l.live)] = bd
	return nil
}

// drive runs l's batches through body on one simulated process per GPU at
// the given rendezvous depth. The first GPU to enter batch i pulls it; after
// the rendezvous each GPU waits out any migration, applies the batch's fault
// factors and runs body. After the last batch every GPU meets once more, so
// the clock ends at the makespan.
func (s *System) drive(l *batchLoop, depth int, body BatchBody) error {
	l.live = make([]*BatchData, depth)
	win := sim.NewWindow(s.Env, s.Cfg.GPUs, depth)
	for g := 0; g < s.Cfg.GPUs; g++ {
		g := g
		// Named without fmt: its printer pool drops entries at random under
		// the race detector, which would make set-up allocation counts vary.
		s.Env.Go("gpu"+strconv.Itoa(g), func(p *sim.Proc) {
			defer func() {
				if r := recover(); r != nil && l.err == nil {
					l.err = fmt.Errorf("GPU %d: %v", g, r)
				}
			}()
			for i := 0; i < l.n; i++ {
				win.Enter(p, i)
				if i == l.drawn {
					l.drawn++
					if err := l.pull(s, i); err != nil && l.err == nil {
						l.err = err
					}
				}
				if l.err != nil {
					return
				}
				p.WaitUntil(l.ready)
				s.ApplyFaults(i)
				body(p, g, i, l.live[i%depth])
				win.Retire(g)
			}
			// The makespan rendezvous: round n+depth-1 opens once every GPU
			// has retired the last batch, releasing them as a barrier would.
			win.Enter(p, l.n+depth-1)
		})
	}
	if _, err := s.Env.RunContext(l.ctx); err != nil {
		return err
	}
	return l.err
}
