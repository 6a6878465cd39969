package retrieval

import (
	"pgasemb/internal/sim"
	"pgasemb/internal/trace"
)

// CompInputStage labels the sparse-input partition + host-to-device copy
// time in breakdowns.
const CompInputStage = "Input Stage"

// InputStaged decorates a retrieval backend with the sparse-input pipeline
// the paper describes in §V: "we partition the sparse inputs on the CPU and
// then copy it to the GPU". With Overlap false, the stage runs serially
// before the EMB kernel — today's behaviour. With Overlap true it models the
// paper's proposed optimisation — "merge the sparse input partitioning into
// the computation kernel" — as a pipeline: chunk i's input preparation hides
// under chunk i-1's compute, so only the first chunk's input latency and
// any excess of input time over compute time remain exposed.
type InputStaged struct {
	Inner   Backend
	Overlap bool
}

// Name implements Backend.
func (b *InputStaged) Name() string {
	if b.Overlap {
		return b.Inner.Name() + "+fused-input"
	}
	return b.Inner.Name() + "+input"
}

// inputCost returns the per-batch input-stage time for GPU g: the CPU scans
// the global batch's index data once (every GPU waits on it), then this
// GPU's share crosses PCIe.
func (b *InputStaged) inputCost(s *System, g int, bd *BatchData) sim.Duration {
	cfg := s.Cfg
	dev := s.Devs[g]
	globalIdxBytes := 8 * float64(bd.Plan.globalIndexTotal(0, cfg.BatchSize))
	localIdxBytes := 8 * float64(bd.Plan.localIndexTotal(g, 0, cfg.BatchSize))
	cpu := globalIdxBytes / dev.Params().CPUPartitionRate
	h2d := localIdxBytes / dev.Params().PCIeBandwidth
	return cpu + h2d
}

// RunBatch implements Backend.
func (b *InputStaged) RunBatch(s *System, p *sim.Proc, g int, bd *BatchData, bk *trace.Breakdown) {
	input := b.inputCost(s, g, bd)
	if !b.Overlap {
		p.Wait(input)
		bk.Accumulate(CompInputStage, input)
		b.Inner.RunBatch(s, p, g, bd, bk)
		return
	}
	// Pipelined: the first chunk's input is exposed, the rest hides under
	// the inner backend's compute; if input preparation is slower than the
	// compute it feeds, the surplus is exposed too.
	chunks := s.Cfg.ChunksPerKernel
	firstChunk := input / sim.Duration(chunks)
	p.Wait(firstChunk)
	start := p.Now()
	b.Inner.RunBatch(s, p, g, bd, bk)
	innerElapsed := p.Now() - start
	exposed := firstChunk
	if surplus := input - firstChunk - innerElapsed; surplus > 0 {
		p.Wait(surplus)
		exposed += surplus
	}
	bk.Accumulate(CompInputStage, exposed)
}
