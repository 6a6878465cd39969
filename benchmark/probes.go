package main

import (
	"fmt"

	"pgasemb/internal/retrieval"
	"pgasemb/internal/workload"
)

// genBatches is how many batches the generator probe draws.
const genBatches = 3

// loopCounts are the extra iterations of a workload's loop probes. Each loop
// probe runs once with 1 iteration and once with 1+extra, on fresh runs that
// generate the same first inputs, so the difference isolates the loop body.
// The counts make the loop body outweigh the one-off input generation. A
// zero compile count skips the compile probe.
type loopCounts struct{ compile, batch int }

// layerProbes times the generator, the route-plan compiler and the
// per-batch retrieval hot path of spec's configuration from outside, one
// span per call.
func layerProbes(tr *tracer, spec *retrieval.SystemSpec, backend retrieval.Backend, extra loopCounts) error {
	cfg := spec.Config()

	gen, err := workload.NewGenerator(generatorConfig(cfg))
	if err != nil {
		return err
	}
	// The timing path draws pooling summaries unless a route-plan feature
	// needs the indices.
	summary := !cfg.Dedup && cfg.CacheFraction == 0 && !cfg.AdaptivePlacement
	for i := 0; i < genBatches; i++ {
		if summary {
			h := tr.begin("workload.NextSummary")
			gen.NextSummary()
			tr.end(h, nil)
		} else {
			h := tr.begin("workload.NextBatch")
			gen.NextBatch()
			tr.end(h, nil)
		}
	}

	loop := func(name string, n int, call func(*retrieval.System, int) error) error {
		s, err := spec.NewRunWithSeed(cfg.Seed)
		if err != nil {
			return err
		}
		h := tr.begin(name)
		a0 := mallocs()
		err = call(s, n)
		allocs := mallocs() - a0
		tr.end(h, map[string]float64{
			"n":      float64(n),
			"allocs": float64(allocs),
			"events": float64(s.Env.EventsFired()),
		})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	if extra.compile > 0 {
		for _, n := range []int{1, 1 + extra.compile} {
			if err := loop("retrieval.PlanCompileLoop", n, retrieval.PlanCompileLoop); err != nil {
				return err
			}
		}
	}
	for _, n := range []int{1, 1 + extra.batch} {
		err := loop("retrieval.BenchLoop", n, func(s *retrieval.System, n int) error {
			return retrieval.BenchLoop(s, backend, n)
		})
		if err != nil {
			return err
		}
	}
	return nil
}
