package retrieval

import (
	"fmt"
	"strconv"

	"pgasemb/internal/sim"
	"pgasemb/internal/trace"
)

// BenchLoop drives n barrier-synchronised batches of backend b over ONE
// pre-generated batch, for Go benchmarks of the per-batch hot path. Input
// generation, cache/dedup classification and buffer attachment run once,
// outside the measured loop, so what the loop exercises is exactly the
// steady-state RunBatch path — the code the per-run arenas keep
// allocation-free.
//
// The batch's input and classification state is reused read-only by every
// iteration; output buffers are rewritten in place, which every backend
// tolerates (they overwrite). Each iteration starts by emptying the
// communication-volume traces, which only a Run's Result reads.
//
// With Config.PipelineDepth > 1 the loop drives the window-pipelined
// schedule instead: one pre-generated batch per staging slot (cycled
// round-robin), with the sliding-window rendezvous in place of the lockstep
// barrier — the same per-slot hot path the pipelined DLRM scheduler runs,
// still allocation-free in steady state.
func BenchLoop(s *System, b Backend, n int) error {
	if n <= 0 {
		return fmt.Errorf("retrieval: BenchLoop needs a positive batch count, got %d", n)
	}
	depth := s.PipelineDepth()
	bds := make([]*BatchData, depth)
	for i := range bds {
		bd, err := s.NextBatchData()
		if err != nil {
			return err
		}
		bds[i] = bd
	}
	bks := make([]*trace.Breakdown, s.Cfg.GPUs)
	for g := range bks {
		bks[g] = &trace.Breakdown{}
	}
	barrier := sim.NewBarrier(s.Env, s.Cfg.GPUs)
	var win *sim.Window
	if depth > 1 {
		win = sim.NewWindow(s.Env, s.Cfg.GPUs, depth)
	}
	var runErr error
	for g := 0; g < s.Cfg.GPUs; g++ {
		g := g
		// Named without fmt: its printer pool drops entries at random under
		// the race detector, which would make set-up allocation counts vary.
		s.Env.Go("gpu"+strconv.Itoa(g), func(p *sim.Proc) {
			defer func() {
				if r := recover(); r != nil && runErr == nil {
					runErr = fmt.Errorf("retrieval: GPU %d: %v", g, r)
				}
			}()
			if win != nil {
				for i := 0; i < n; i++ {
					win.Enter(p, i)
					s.dropVolumeRecords(g)
					b.RunBatch(s, p, g, bds[i%depth], bks[g])
					win.Retire(g)
				}
				barrier.Await(p)
				return
			}
			for i := 0; i < n; i++ {
				barrier.Await(p)
				s.dropVolumeRecords(g)
				b.RunBatch(s, p, g, bds[0], bks[g])
			}
			barrier.Await(p)
		})
	}
	s.Env.Run()
	return runErr
}

// dropVolumeRecords empties GPU g's one-sided volume trace and, from GPU 0,
// the collective's, keeping their capacity. The traces only feed
// Result.CommTrace, which BenchLoop never builds; left alone they would grow
// with n and put slice growth on the measured loop.
func (s *System) dropVolumeRecords(g int) {
	s.PGAS.PE(g).Counter().Reset()
	if g == 0 {
		s.Comm.Volume().Reset()
	}
}

// PlanCompileLoop drives n route-plan compilations over ONE materialised
// batch, for Go benchmarks of the host-side classifier passes (residency view,
// dedup key sets, node-level dedup, replica serve map). Input generation runs
// once outside the loop, so what the loop measures is exactly the per-batch
// compile cost the pipelined scheduler pays on the host while the device
// works on the previous batch.
func PlanCompileLoop(s *System, n int) error {
	if n <= 0 {
		return fmt.Errorf("retrieval: PlanCompileLoop needs a positive count, got %d", n)
	}
	bd := &BatchData{Sparse: s.gen.NextBatch()}
	for i := 0; i < n; i++ {
		s.compileRoutePlan(bd, nil, nil)
	}
	return nil
}
