package dlrm

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"pgasemb/internal/retrieval"
	"pgasemb/internal/sim"
	"pgasemb/internal/trace"
	"pgasemb/internal/workload"
)

// gradedSkewConfig is the placement sweep's graded-skew workload: four hot
// tables (pooling up to 64 and 16) among 28 light ones and Zipf 1.2 rows,
// under adaptive placement every 4 batches. Without dedup the static plan's
// hot owner ships every pooled vector, so moving a hot table pays for its
// migration and the controller swaps.
func gradedSkewConfig() retrieval.Config {
	cfg := retrieval.ServingScaleConfig(4)
	cfg.Batches = 24
	pool := make([]int, cfg.TotalTables)
	for f := range pool {
		pool[f] = 4
	}
	pool[0], pool[1] = 64, 64
	pool[2], pool[3] = 16, 16
	cfg.MinPooling, cfg.MaxPooling = 1, 4
	cfg.PerFeatureMaxPooling = pool
	cfg.Distribution = workload.Zipf
	cfg.ZipfExponent = 1.2
	cfg.AdaptivePlacement = true
	cfg.RebalanceEvery = 4
	return cfg
}

// TestPipelineRebalancesLikeRun checks that the DLRM pipeline runs adaptive
// placement: on a workload whose controller swaps the plan, the pipeline's
// run must end on the same plan as System.Run's, swap as often and migrate as
// many bytes, and that plan must differ from the spec's static one.
func TestPipelineRebalancesLikeRun(t *testing.T) {
	cfg := gradedSkewConfig()
	spec, err := retrieval.NewSystemSpec(cfg, retrieval.DefaultHardware())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := spec.NewRun()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(&retrieval.PGASFused{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rebalances == 0 {
		t.Fatal("System.Run swapped no plan; the workload no longer exercises placement")
	}
	pl, err := NewPipeline(cfg, retrieval.DefaultHardware(), &retrieval.PGASFused{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Run(); err != nil {
		t.Fatal(err)
	}
	got, want := fmt.Sprint(pl.Sys.Plan), fmt.Sprint(sys.Plan)
	if got != want {
		t.Fatalf("pipeline ends on plan %s, System.Run on %s", got, want)
	}
	if static := fmt.Sprint(spec.Plan()); got == static {
		t.Fatalf("pipeline plan %s is still the spec's", got)
	}
	if swaps, bytes := pl.Sys.Migration(); swaps != res.Rebalances || bytes != res.MigratedBytes {
		t.Fatalf("pipeline swapped %d plans and migrated %g bytes, System.Run %d and %g",
			swaps, bytes, res.Rebalances, res.MigratedBytes)
	}
}

// heapProbe is PGASFused, plus a record of the batches GPU 0 ran and of the
// live heap at its last one.
type heapProbe struct {
	retrieval.PGASFused
	ran      int                  // batches GPU 0 ran
	prev     *retrieval.BatchData // GPU 0's previous batch
	disorder string               // the first batch that was a repeat or out of slot order
	heap     uint64               // live heap bytes at GPU 0's last batch
}

func (h *heapProbe) RunBatch(s *retrieval.System, p *sim.Proc, g int, bd *retrieval.BatchData, bk *trace.Breakdown) {
	if g == 0 {
		if (bd == h.prev || bd.Slot != h.ran%s.PipelineDepth()) && h.disorder == "" {
			h.disorder = fmt.Sprintf("batch %d (slot %d)", h.ran, bd.Slot)
		}
		h.prev = bd
		h.ran++
		if h.ran == s.Cfg.Batches {
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			h.heap = ms.HeapAlloc
		}
	}
	h.PGASFused.RunBatch(s, p, g, bd, bk)
}

// TestLiveHeapFlatInBatches checks that a run holds a bounded number of
// batches: the live heap at the last batch of a 100-batch run is within two
// plans of a 10-batch run's, through System.Run at depths 1 and 2 and through
// the DLRM pipeline. It also checks that every batch is drawn once, in order:
// GPU 0 sees Batches distinct batches in slot order, and the run's dedup
// counters classified exactly Batches.
func TestLiveHeapFlatInBatches(t *testing.T) {
	base := retrieval.TestScaleConfig(4)
	base.Functional = false
	base.TotalTables = 8
	base.BatchSize = 8192
	base.Dedup = true
	// A plan's pooled-index prefixes: one int64 per (shard, sample + 1).
	planBytes := int64(base.GPUs * (base.BatchSize + 1) * 8)
	paths := []struct {
		name     string
		depth    int
		pipeline bool
	}{
		{"run-depth1", 1, false},
		{"run-depth2", 2, false},
		{"pipeline", 1, true},
	}
	for _, path := range paths {
		t.Run(path.name, func(t *testing.T) {
			heap := func(batches int) int64 {
				cfg := base
				cfg.Batches = batches
				cfg.PipelineDepth = path.depth
				probe := &heapProbe{}
				var sys *retrieval.System
				if path.pipeline {
					pl, err := NewPipeline(cfg, retrieval.DefaultHardware(), probe)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := pl.Run(); err != nil {
						t.Fatal(err)
					}
					sys = pl.Sys
				} else {
					var err error
					if sys, err = retrieval.NewSystem(cfg, retrieval.DefaultHardware()); err != nil {
						t.Fatal(err)
					}
					if _, err := sys.Run(probe); err != nil {
						t.Fatal(err)
					}
				}
				if probe.disorder != "" {
					t.Fatalf("%d batches: GPU 0 ran %s out of order", batches, probe.disorder)
				}
				if probe.ran != batches {
					t.Fatalf("GPU 0 ran %d batches, want %d", probe.ran, batches)
				}
				if n := sys.DedupStats().Batches; n != int64(batches) {
					t.Fatalf("the run classified %d batches, want %d", n, batches)
				}
				return int64(probe.heap)
			}
			small, large := heap(10), heap(100)
			t.Logf("live heap %d B at 10 batches, %d B at 100 (a plan is %d B)", small, large, planBytes)
			if grown := large - small; grown > 2*planBytes {
				t.Fatalf("live heap grows %d B from 10 to 100 batches, more than two plans (%d B)", grown, 2*planBytes)
			}
		})
	}
}

func TestPipelineRunContextCancelled(t *testing.T) {
	pl, err := NewPipeline(retrieval.TestScaleConfig(2), retrieval.DefaultHardware(), &retrieval.PGASFused{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pl.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled pipeline returned %v, want context.Canceled", err)
	}
}
