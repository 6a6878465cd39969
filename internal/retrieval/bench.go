package retrieval

import (
	"context"
	"fmt"

	"pgasemb/internal/sim"
	"pgasemb/internal/trace"
)

// BenchLoop drives n batches of backend b over pre-generated batches, for Go
// benchmarks of the per-batch hot path. Input generation, cache/dedup
// classification and buffer attachment run once, outside the measured loop,
// so what the loop exercises is exactly the steady-state RunBatch path — the
// code the per-run arenas keep allocation-free.
//
// The loop draws one batch and runs it n times through the run's lockstep
// batch driver. The batch's input and classification state is reused
// read-only by every iteration; output buffers are rewritten in place, which
// every backend tolerates (they overwrite).
// Each iteration starts by emptying the communication-volume traces, which
// only a Run's Result reads.
func BenchLoop(s *System, b Backend, n int) error {
	if n <= 0 {
		return fmt.Errorf("retrieval: BenchLoop needs a positive batch count, got %d", n)
	}
	bd, err := s.NextBatchData()
	if err != nil {
		return err
	}
	bks := make([]*trace.Breakdown, s.Cfg.GPUs)
	for g := range bks {
		bks[g] = &trace.Breakdown{}
	}
	err = s.fly(&Flight{ctx: context.Background(), n: n, fixed: bd}, func(p *sim.Proc, g, _ int, bd *BatchData) {
		s.dropVolumeRecords(g)
		b.RunBatch(s, p, g, bd, bks[g])
	})
	if err != nil {
		return fmt.Errorf("retrieval: BenchLoop: %w", err)
	}
	return nil
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
// batch, for Go benchmarks of the host-side classifier passes (residency
// hits, dedup key sets, node-level dedup, placement statistics, replica serve
// column).
// Input generation, the pooled prefix sums included, runs once outside the
// loop, so what the loop measures is exactly the per-batch compile cost the
// pipelined scheduler pays on the host while the device works on the
// previous batch.
func PlanCompileLoop(s *System, n int) error {
	if n <= 0 {
		return fmt.Errorf("retrieval: PlanCompileLoop needs a positive count, got %d", n)
	}
	s.drawPooling()
	bd := &BatchData{Sparse: s.drawBatch()}
	for i := 0; i < n; i++ {
		s.compileRoutePlan(bd)
	}
	return nil
}
