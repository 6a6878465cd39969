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
// process per GPU — the one batch loop behind Run and the DLRM pipeline — and
// runs the machine's clock until they are done.
//
// Every batch runs in lockstep: the GPUs meet at a barrier after each batch's
// body. The first GPU to start draws batch 0 (NextBatchData) and the last to
// reach each barrier draws the next, so exactly one batch is live at a time
// and each is drawn once, in batch order. A body may leave work queued on a
// device past its return (the DLRM pipeline's dense tail); the exchange
// itself never crosses the barrier. A batch that opens an adaptive-placement
// epoch is drawn only after the controller has rebalanced, so every route
// plan is compiled against the placement that runs it, and no GPU starts the
// batch before the migration traffic has landed. Drive returns the last batch
// once every GPU has finished it, or ctx.Err() if ctx ends first, or an error
// naming the GPU whose body panicked.
func (s *System) Drive(ctx context.Context, body BatchBody) (*BatchData, error) {
	f := &Flight{ctx: ctx, n: s.Cfg.Batches}
	if err := s.fly(f, body); err != nil {
		return nil, err
	}
	return f.live, nil
}

// Start is Drive on a clock that is already running: it begins the run's
// Cfg.Batches batches, drawn from seed, on the machine's clock and returns
// without running it. The flight's GPUs begin once the machine's previous
// flight has fired its handover, and share the machine's devices, links and
// runtimes with whatever work that flight has left; body fires this flight's
// handover once its exchanges are done. Done fires when every GPU has
// finished the last batch, or when one fails (Flight.Err).
func (s *System) Start(ctx context.Context, seed uint64, handover *sim.Signal, body BatchBody) *Flight {
	s.gen.Reseed(seed)
	s.Cfg.Seed = seed
	f := &Flight{Done: sim.NewSignal(s.Env), ctx: ctx, n: s.Cfg.Batches, after: s.handover}
	s.handover = handover
	s.launch(f, body)
	return f
}

// Flight is one Drive or Start: its batch source and the state its GPUs
// share.
type Flight struct {
	// Done fires once every GPU has finished the flight's last batch, or
	// once a GPU has failed. Nil for Drive, which runs the clock itself.
	Done *sim.Signal

	ctx context.Context
	n   int // batches to run
	// fixed, when non-nil, is run as every batch instead of drawing fresh
	// ones.
	fixed *BatchData
	// after is the previous flight's handover (nil if none).
	after *sim.Signal

	base  int        // the machine's index of the flight's first batch
	live  *BatchData // the batch in flight
	drawn int        // batches pulled so far
	ready sim.Time   // the last rebalance's migration end
	err   error      // the first pull error or panic
}

// Err returns the error that ended the flight early, if any.
func (f *Flight) Err() error { return f.err }

// fail records the flight's first error and releases its waiters.
func (f *Flight) fail(err error) {
	if f.err != nil {
		return
	}
	f.err = err
	if f.Done != nil && !f.Done.Fired() {
		f.Done.Fire()
	}
}

// pull makes batch i live. A batch that opens an adaptive-placement epoch is
// drawn after the rebalance, which moves ready to the end of its migration
// traffic. The first pull numbers the flight's batches on the machine.
func (f *Flight) pull(s *System, i int) error {
	if f.fixed != nil {
		f.live = f.fixed
		return nil
	}
	if err := f.ctx.Err(); err != nil {
		return err
	}
	if i == 0 {
		f.base = s.batchSeq
		for pe := range s.dropSeq0 {
			s.dropSeq0[pe] = s.PGAS.PE(pe).Flushes()
		}
	}
	if s.placementEnabled() && s.placeCtl.Due(f.base+i) {
		ready, err := s.rebalanceNow()
		if err != nil {
			return err
		}
		f.ready = ready
	}
	bd, err := s.NextBatchData()
	if err != nil {
		return err
	}
	f.live = bd
	return nil
}

// fly runs f's batches through body and the clock until it drains.
func (s *System) fly(f *Flight, body BatchBody) error {
	s.launch(f, body)
	if _, err := s.Env.RunContext(f.ctx); err != nil {
		return err
	}
	return f.err
}

// launch starts f's batches on one simulated process per GPU. The first GPU
// to reach batch i pulls it; each GPU then waits out any migration, applies
// the batch's fault factors, runs body and meets the others at the batch
// barrier, so Done fires at the makespan.
func (s *System) launch(f *Flight, body BatchBody) {
	bar := sim.NewBarrier(s.Env, s.Cfg.GPUs)
	for g := 0; g < s.Cfg.GPUs; g++ {
		g := g
		// Named without fmt: its printer pool drops entries at random under
		// the race detector, which would make set-up allocation counts vary.
		s.Env.Go("gpu"+strconv.Itoa(g), func(p *sim.Proc) {
			defer func() {
				if r := recover(); r != nil {
					f.fail(fmt.Errorf("GPU %d: %v", g, r))
				}
			}()
			if f.after != nil {
				p.WaitSignal(f.after)
			}
			for i := 0; i < f.n; i++ {
				if i == f.drawn {
					f.drawn++
					if err := f.pull(s, i); err != nil {
						f.fail(err)
					}
				}
				if f.err != nil {
					return
				}
				p.WaitUntil(f.ready)
				s.ApplyFaults(f.base + i)
				body(p, g, i, f.live)
				bar.Await(p)
			}
			if f.Done != nil && !f.Done.Fired() {
				f.Done.Fire()
			}
		})
	}
}
