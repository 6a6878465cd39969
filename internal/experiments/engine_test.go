package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"pgasemb/internal/sim"
)

func TestForEachRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		const n = 23
		var mu sync.Mutex
		seen := make(map[int]int)
		err := forEach(context.Background(), workers, n, func(i int) error {
			mu.Lock()
			seen[i]++
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(seen) != n {
			t.Fatalf("workers=%d: ran %d of %d indices", workers, len(seen), n)
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachReportsLowestIndexError(t *testing.T) {
	// Serially (workers == 1) the reported error is exactly the one a plain
	// loop would hit: the lowest failing index.
	boom := func(i int) error { return fmt.Errorf("job %d failed", i) }
	fail25 := func(i int) error {
		if i == 2 || i == 5 {
			return boom(i)
		}
		return nil
	}
	if err := forEach(context.Background(), 1, 8, fail25); err == nil || err.Error() != "job 2 failed" {
		t.Fatalf("serial: err = %v, want job 2's error", err)
	}
	// In parallel, which failing job runs first depends on scheduling (a
	// later failure cancels earlier jobs that have not started), but the
	// reported error must always be one of the real failures — never a
	// bare cancellation, never nil.
	for trial := 0; trial < 10; trial++ {
		err := forEach(context.Background(), 4, 8, fail25)
		if err == nil || (err.Error() != "job 2 failed" && err.Error() != "job 5 failed") {
			t.Fatalf("trial %d: err = %v, want one of the injected job errors", trial, err)
		}
	}
}

func TestForEachStopsAfterFailure(t *testing.T) {
	var ran int64
	err := forEach(context.Background(), 1, 100, func(i int) error {
		atomic.AddInt64(&ran, 1)
		if i == 3 {
			return errors.New("stop here")
		}
		return nil
	})
	if err == nil {
		t.Fatal("error swallowed")
	}
	if got := atomic.LoadInt64(&ran); got > 5 {
		t.Fatalf("%d jobs ran after the failure should have cancelled the rest", got)
	}
}

func TestForEachHonoursCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran int64
	err := forEach(ctx, 4, 10, func(i int) error {
		atomic.AddInt64(&ran, 1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if atomic.LoadInt64(&ran) != 0 {
		t.Fatal("jobs ran under a cancelled context")
	}
}

// fastOpts keeps the engine determinism sweeps quick.
func fastOpts(parallel int) Options {
	return Options{Batches: 2, MaxGPUs: 3, Parallel: parallel}
}

// TestParallelScalingMatchesSerial is the engine's core guarantee: the
// rendered tables and CSVs of a parallel sweep are byte-identical to a
// serial sweep's.
func TestParallelScalingMatchesSerial(t *testing.T) {
	for _, kind := range []ScalingKind{WeakScaling, StrongScaling} {
		serial, err := RunScaling(context.Background(), kind, fastOpts(1))
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := RunScaling(context.Background(), kind, fastOpts(4))
		if err != nil {
			t.Fatal(err)
		}
		for _, pair := range []struct {
			name string
			s, p *Table
		}{
			{"speedups", serial.SpeedupTable(), parallel.SpeedupTable()},
			{"factors", serial.FactorTable(), parallel.FactorTable()},
			{"breakdown", serial.BreakdownTable(), parallel.BreakdownTable()},
		} {
			if pair.s.Render() != pair.p.Render() {
				t.Errorf("%s %s: parallel Render differs from serial", kind, pair.name)
			}
			if pair.s.CSV() != pair.p.CSV() {
				t.Errorf("%s %s: parallel CSV differs from serial", kind, pair.name)
			}
		}
	}
}

func TestParallelAblationsMatchSerial(t *testing.T) {
	serial, err := RunAblations(context.Background(), 3, fastOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunAblations(context.Background(), 3, fastOpts(5))
	if err != nil {
		t.Fatal(err)
	}
	if AblationTable(serial).CSV() != AblationTable(parallel).CSV() {
		t.Fatal("parallel ablation table differs from serial")
	}
}

func TestParallelStatsMatchSerial(t *testing.T) {
	serial, err := RunScalingStats(context.Background(), WeakScaling, 3, fastOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunScalingStats(context.Background(), WeakScaling, 3, fastOpts(6))
	if err != nil {
		t.Fatal(err)
	}
	s := StatsTable(WeakScaling, serial)
	p := StatsTable(WeakScaling, parallel)
	if s.CSV() != p.CSV() {
		t.Fatalf("parallel stats differ from serial:\n%s\n---\n%s", s.CSV(), p.CSV())
	}
}

func TestParallelCommVolumeMatchesSerial(t *testing.T) {
	serial, err := RunCommVolume(context.Background(), WeakScaling, 2, 50, fastOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunCommVolume(context.Background(), WeakScaling, 2, 50, fastOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	if serial.CSVTable().CSV() != parallel.CSVTable().CSV() {
		t.Fatal("parallel comm-volume profile differs from serial")
	}
}

func TestParallelPipelineDepthMatchesSerial(t *testing.T) {
	serial, err := RunPipelineDepth(context.Background(), 2, []int{1, 2}, fastOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunPipelineDepth(context.Background(), 2, []int{1, 2}, fastOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	s, p := PipelineDepthTable(serial), PipelineDepthTable(parallel)
	if s.Render() != p.Render() || s.CSV() != p.CSV() {
		t.Fatalf("parallel pipeline-depth table differs from serial:\n%s\n---\n%s", s.CSV(), p.CSV())
	}
}

// Every sweep entry point honours a context cancelled before it starts.
func TestExperimentContextCancellation(t *testing.T) {
	sweeps := []struct {
		name string
		run  func(ctx context.Context) error
	}{
		{"RunScaling", func(ctx context.Context) error {
			_, err := RunScaling(ctx, WeakScaling, fastOpts(2))
			return err
		}},
		{"RunCommVolume", func(ctx context.Context) error {
			_, err := RunCommVolume(ctx, WeakScaling, 2, 50, fastOpts(2))
			return err
		}},
		{"RunScalingStats", func(ctx context.Context) error {
			_, err := RunScalingStats(ctx, WeakScaling, 2, fastOpts(2))
			return err
		}},
		{"RunAblations", func(ctx context.Context) error {
			_, err := RunAblations(ctx, 2, fastOpts(2))
			return err
		}},
		{"RunPipelineDepth", func(ctx context.Context) error {
			_, err := RunPipelineDepth(ctx, 2, []int{1, 2}, fastOpts(2))
			return err
		}},
		{"RunMultiNode", func(ctx context.Context) error {
			_, err := RunMultiNode(ctx, WeakScaling, multiNodeTestOptions())
			return err
		}},
		{"RunPrecision", func(ctx context.Context) error {
			_, err := RunPrecision(ctx, precisionTestOptions())
			return err
		}},
		{"RunServing", func(ctx context.Context) error {
			base, hw := servingTestBase(), servingTestHW()
			_, err := RunServing(ctx, ServingOptions{
				Rates: []float64{1500}, CacheFractions: []float64{0},
				Duration: 200 * sim.Millisecond, Base: &base, HW: &hw,
			})
			return err
		}},
		{"RunChaos", func(ctx context.Context) error {
			_, err := RunChaos(ctx, chaosTestOptions())
			return err
		}},
		{"RunPlacement", func(ctx context.Context) error {
			_, err := RunPlacement(ctx, placementTestOptions())
			return err
		}},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, sw := range sweeps {
		t.Run(sw.name, func(t *testing.T) {
			if err := sw.run(ctx); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		})
	}
}

func TestBenchRecordsExperiments(t *testing.T) {
	b := NewBench()
	opts := fastOpts(2)
	opts.Bench = b
	if _, err := RunScaling(context.Background(), WeakScaling, opts); err != nil {
		t.Fatal(err)
	}
	rep := b.Report()
	if len(rep.Experiments) != 1 {
		t.Fatalf("recorded %d experiments, want 1", len(rep.Experiments))
	}
	e := rep.Experiments[0]
	if e.Name != "weak-scaling" || e.Parallel != 2 {
		t.Fatalf("experiment record %+v", e)
	}
	if e.Runs != 2*3 {
		t.Fatalf("recorded %d runs, want 6", e.Runs)
	}
	if e.WallSeconds <= 0 || e.RunSeconds <= 0 {
		t.Fatalf("timings not recorded: %+v", e)
	}
	if rep.TotalWallSeconds <= 0 || rep.GoMaxProcs <= 0 {
		t.Fatalf("report totals missing: %+v", rep)
	}
}

func TestBenchRecordsPipelineDepthRuns(t *testing.T) {
	b := NewBench()
	opts := fastOpts(1)
	opts.Bench = b
	if _, err := RunPipelineDepth(context.Background(), 2, []int{1, 2}, opts); err != nil {
		t.Fatal(err)
	}
	e := b.Report().Experiments[0]
	if e.Name != "pipeline-depth-2gpu" || e.Runs != 2*2 || e.RunSeconds <= 0 || e.Speedup <= 0 {
		t.Fatalf("pipeline-depth record %+v, want 4 timed runs", e)
	}
}

func TestBenchNilSafe(t *testing.T) {
	var b *Bench
	stop := b.Start("x", 1)
	b.noteRun(0)
	stop()
	if rep := b.Report(); len(rep.Experiments) != 0 {
		t.Fatal("nil bench recorded experiments")
	}
}
