package dlrm

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"pgasemb/internal/fault"
	"pgasemb/internal/retrieval"
	"pgasemb/internal/sim"
	"pgasemb/internal/tensor"
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
	disorder string               // the first batch that was a repeat
	heap     uint64               // live heap bytes at GPU 0's last batch
}

func (h *heapProbe) RunBatch(s *retrieval.System, p *sim.Proc, g int, bd *retrieval.BatchData, bk *trace.Breakdown) {
	if g == 0 {
		if bd == h.prev && h.disorder == "" {
			h.disorder = fmt.Sprintf("batch %d", h.ran)
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
// the DLRM pipeline at depths 1 and 2. It also checks that every batch is
// drawn once: GPU 0 sees Batches batches, none a repeat of the one before,
// and the run's dedup counters classified exactly Batches.
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
		{"pipeline-depth2", 2, true},
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
					t.Fatalf("%d batches: GPU 0 ran %s twice", batches, probe.disorder)
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

// batchProbe wraps a backend and records each batch's EMB span — the longest
// RunBatch on any GPU — and the batches GPU 0 ran. At the first RunBatch of a
// batch whose draw migrated tables it checks that the migration has landed:
// no NVLink pipe is still busy.
type batchProbe struct {
	retrieval.Backend
	t      *testing.T
	calls  []int          // batches each GPU has run
	emb    []sim.Duration // each batch's EMB span
	ran    []*retrieval.BatchData
	moved  float64 // migrated bytes as of the last batch
	epochs int     // batches that opened after a migration
}

func (b *batchProbe) RunBatch(s *retrieval.System, p *sim.Proc, g int, bd *retrieval.BatchData, bk *trace.Breakdown) {
	if b.calls == nil {
		b.calls = make([]int, s.Cfg.GPUs)
	}
	i := b.calls[g]
	b.calls[g]++
	if i == len(b.emb) {
		b.emb = append(b.emb, 0)
		b.ran = append(b.ran, bd)
		if _, moved := s.Migration(); moved > b.moved {
			b.moved = moved
			b.epochs++
			for src := 0; src < s.Cfg.GPUs; src++ {
				for dst := 0; dst < s.Cfg.GPUs; dst++ {
					if src == dst {
						continue
					}
					if busy := s.Fab.Pipe(src, dst).BusyUntil(); busy > p.Now() {
						b.t.Errorf("batch %d started at %g, pipe %d->%d busy with migration until %g", i, p.Now(), src, dst, busy)
					}
				}
			}
		}
	}
	start := p.Now()
	b.Backend.RunBatch(s, p, g, bd, bk)
	b.emb[i] = max(b.emb[i], p.Now()-start)
}

// checkStraggledBatch fails t unless the straggled run's batch k took longer
// than the healthy run's and every other batch took as long, up to the
// rounding of absolute times against durations.
func checkStraggledBatch(t *testing.T, k int, healthy, slow []sim.Duration) {
	t.Helper()
	if len(slow) != len(healthy) {
		t.Fatalf("straggled run ran %d batches, healthy %d", len(slow), len(healthy))
	}
	for i := range healthy {
		gap := math.Abs(slow[i]-healthy[i]) / healthy[i]
		switch {
		case i == k && slow[i] <= healthy[i]:
			t.Errorf("straggled batch %d took %g s, healthy %g s", i, slow[i], healthy[i])
		case i != k && gap > 1e-9:
			t.Errorf("batch %d took %g s beside a straggler on batch %d, %g s healthy", i, slow[i], k, healthy[i])
		}
	}
}

// placementSkewConfig is a small functional workload whose adaptive
// placement moves and mirrors tables: four hot tables among twelve light
// ones, Zipf rows, a rebalance every 3 batches with a two-table mirror
// budget.
func placementSkewConfig() retrieval.Config {
	pool := make([]int, 16)
	for f := range pool {
		pool[f] = 4
	}
	pool[0], pool[1] = 64, 64
	pool[2], pool[3] = 16, 16
	return retrieval.Config{
		GPUs: 4, TotalTables: 16, Rows: 8192, Dim: 16, BatchSize: 128,
		MinPooling: 1, MaxPooling: 4, PerFeatureMaxPooling: pool,
		Batches: 10, Seed: 2024, ChunksPerKernel: 4, Functional: true,
		Distribution: workload.Zipf, ZipfExponent: 1.2,
		AdaptivePlacement: true, RebalanceEvery: 3, HotTables: 2,
	}
}

// TestPipelineDepth2ComposesFaultsAndPlacement runs the DLRM pipeline at
// depth 2 with adaptive placement, healthy and with a straggler window on
// batch 4. Every exchange runs in lockstep, so at any depth the straggler
// lengthens batch 4's EMB and no other batch's, every batch that opens a
// rebalance epoch starts after its migration has landed, and every batch's
// EMB output and the last batch's predictions equal the serial reference.
func TestPipelineDepth2ComposesFaultsAndPlacement(t *testing.T) {
	const k = 4
	straggler := &fault.Schedule{Events: []fault.Event{
		{Kind: fault.Straggler, FromBatch: k, ToBatch: k + 1, GPU: 1, Factor: 4},
	}}
	for _, name := range retrieval.RegisteredBackends() {
		t.Run(name, func(t *testing.T) {
			run := func(faults *fault.Schedule) []sim.Duration {
				cfg := placementSkewConfig()
				cfg.PipelineDepth = 2
				hw := retrieval.DefaultHardware()
				hw.Faults = faults
				be, err := retrieval.NewBackendByName(name)
				if err != nil {
					t.Fatal(err)
				}
				probe := &batchProbe{Backend: be, t: t}
				pl, err := NewPipeline(cfg, hw, probe)
				if err != nil {
					t.Fatal(err)
				}
				res, err := pl.Run()
				if err != nil {
					t.Fatal(err)
				}
				if probe.epochs == 0 {
					t.Fatal("no batch opened an epoch that migrated bytes")
				}
				for i, bd := range probe.ran {
					want, err := retrieval.Reference(pl.Sys, bd.Sparse)
					if err != nil {
						t.Fatal(err)
					}
					for g := range want {
						if !tensor.Equal(bd.Final[g], want[g]) {
							t.Fatalf("batch %d, GPU %d differs from reference (max diff %g)",
								i, g, tensor.MaxAbsDiff(bd.Final[g], want[g]))
						}
					}
				}
				want := mustReferencePredictions(t, pl, res.LastSparse, res.LastDense)
				at := 0
				for g, got := range res.Predictions {
					n := got.Dim(0)
					if !tensor.Equal(got, want.Narrow(0, at, n).Contiguous()) {
						t.Fatalf("GPU %d predictions differ from the reference", g)
					}
					at += n
				}
				return probe.emb
			}
			checkStraggledBatch(t, k, run(nil), run(straggler))
		})
	}
}
