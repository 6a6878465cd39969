package main

import (
	"fmt"
	"math"

	"pgasemb/internal/dlrm"
	"pgasemb/internal/retrieval"
	"pgasemb/internal/tensor"
)

// twinConfig shrinks cfg to a functional configuration at test scale that
// keeps every knob the workload turns: GPU count and cluster, distribution,
// dedup, wire precision, pipeline depth, cache and adaptive placement.
func twinConfig(cfg retrieval.Config) retrieval.Config {
	t := cfg
	t.Functional = true
	t.TotalTables = 2 * cfg.GPUs
	t.Rows = 64
	t.Dim = 8
	t.BatchSize = 4 * cfg.GPUs
	t.MinPooling = 1
	t.MaxPooling = min(cfg.MaxPooling, 6)
	if cfg.PerFeatureMaxPooling != nil {
		t.PerFeatureMaxPooling = make([]int, t.TotalTables)
		for f := range t.PerFeatureMaxPooling {
			t.PerFeatureMaxPooling[f] = min(cfg.PerFeatureMaxPooling[f%len(cfg.PerFeatureMaxPooling)], 6)
		}
	}
	t.Batches = 6
	t.ChunksPerKernel = 4
	if cfg.AdaptivePlacement {
		t.RebalanceEvery = 2
	}
	if cfg.CacheFraction > 0 {
		t.CacheFraction = 1e-8 // a few slots per GPU, so admissions evict
	}
	return t
}

// verifyTwin runs cfg's twin under each backend and checks that every GPU's
// EMB output equals the serial reference byte for byte, and that a
// timing-only run takes the functional run's simulated time. With
// pipeline set it checks the DLRM pipeline's predictions the same way.
// corrupt perturbs one output before the comparison, to show a mismatch is
// caught.
func verifyTwin(cfg retrieval.Config, hw retrieval.HardwareParams, backends []retrieval.Backend, pipeline, corrupt bool) error {
	fcfg := twinConfig(cfg)
	tcfg := fcfg
	tcfg.Functional = false
	for _, be := range backends {
		fail := func(format string, args ...any) error {
			return fmt.Errorf("twin %s: %s", be.Name(), fmt.Sprintf(format, args...))
		}
		run := func(c retrieval.Config) (*retrieval.System, *retrieval.Result, error) {
			s, err := retrieval.NewSystem(c, hw)
			if err != nil {
				return nil, nil, err
			}
			res, err := s.Run(be)
			return s, res, err
		}
		fs, fres, err := run(fcfg)
		if err != nil {
			return fail("functional run: %v", err)
		}
		want, err := retrieval.Reference(fs, fres.LastBatch)
		if err != nil {
			return fail("reference: %v", err)
		}
		if corrupt {
			fres.Final[0].Data()[0]++
		}
		for g := range want {
			if !tensor.Equal(fres.Final[g], want[g]) {
				return fail("GPU %d output differs from the serial reference (max diff %g)",
					g, tensor.MaxAbsDiff(fres.Final[g], want[g]))
			}
		}
		_, tres, err := run(tcfg)
		if err != nil {
			return fail("timing run: %v", err)
		}
		if !sameTime(tres.TotalTime, fres.TotalTime) {
			return fail("timing run took %g s simulated, functional run %g s", tres.TotalTime, fres.TotalTime)
		}
		if pipeline {
			if err := verifyPipeline(fcfg, tcfg, hw, be); err != nil {
				return fail("%v", err)
			}
		}
	}
	return nil
}

// sameTime reports whether two simulated times agree within 1 ns, the
// tolerance of the repository's registry gate: the two modes sum the same
// phase times in different orders.
func sameTime(a, b float64) bool { return math.Abs(a-b) <= 1e-9 }

// verifyPipeline checks the DLRM pipeline's predictions against the serial
// reference model and its timing-only run against the functional one.
func verifyPipeline(fcfg, tcfg retrieval.Config, hw retrieval.HardwareParams, be retrieval.Backend) error {
	model, err := dlrm.NewModel(dlrm.DefaultModelConfig(fcfg.TotalTables, fcfg.Dim), fcfg.Seed)
	if err != nil {
		return err
	}
	run := func(c retrieval.Config) (*dlrm.Pipeline, *dlrm.PipelineResult, error) {
		spec, err := retrieval.NewSystemSpec(c, hw)
		if err != nil {
			return nil, nil, err
		}
		pl, err := dlrm.NewPipelineRun(spec, be, model, c.Seed)
		if err != nil {
			return nil, nil, err
		}
		res, err := pl.Run()
		return pl, res, err
	}
	pl, fres, err := run(fcfg)
	if err != nil {
		return fmt.Errorf("functional pipeline: %w", err)
	}
	want, err := dlrm.ReferencePredictions(pl, fres.LastSparse, fres.LastDense)
	if err != nil {
		return fmt.Errorf("reference predictions: %w", err)
	}
	for g, got := range fres.Predictions {
		lo, hi := pl.Sys.Minibatch(g)
		if !tensor.Equal(got, want.Narrow(0, lo, hi-lo).Contiguous()) {
			return fmt.Errorf("GPU %d predictions differ from the serial reference", g)
		}
	}
	_, tres, err := run(tcfg)
	if err != nil {
		return fmt.Errorf("timing pipeline: %w", err)
	}
	if !sameTime(tres.TotalTime, fres.TotalTime) {
		return fmt.Errorf("timing pipeline took %g s simulated, functional pipeline %g s", tres.TotalTime, fres.TotalTime)
	}
	return nil
}
