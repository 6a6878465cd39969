package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"pgasemb/internal/retrieval"
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
	return Options{Batches: 2, MaxGPUs: 3, Sweep: Sweep{Parallel: parallel}}
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

// entryPoint is one Run* entry point at test size: run executes it with sw
// as its options' Sweep (nil Backends = the entry point's default). jobs is
// its job count and bench its bench record's name.
type entryPoint struct {
	name  string
	bench string
	jobs  int
	run   func(ctx context.Context, sw Sweep) error
}

func entryPoints() []entryPoint {
	opts := func(sw Sweep) Options {
		o := fastOpts(0)
		o.Sweep = sw
		return o
	}
	return []entryPoint{
		{"RunScaling", "weak-scaling", 2 * 3, func(ctx context.Context, sw Sweep) error {
			_, err := RunScaling(ctx, WeakScaling, opts(sw))
			return err
		}},
		{"RunCommVolume", "weak-commvolume-2gpu", 2, func(ctx context.Context, sw Sweep) error {
			_, err := RunCommVolume(ctx, WeakScaling, 2, 50, opts(sw))
			return err
		}},
		{"RunScalingStats", "weak-scaling-stats", 2 * 2 * 2, func(ctx context.Context, sw Sweep) error {
			_, err := RunScalingStats(ctx, WeakScaling, 2, opts(sw))
			return err
		}},
		{"RunAblations", "ablations-2gpu", 5, func(ctx context.Context, sw Sweep) error {
			_, err := RunAblations(ctx, 2, opts(sw))
			return err
		}},
		{"RunPipelineDepth", "pipeline-depth-2gpu", 2 * 2, func(ctx context.Context, sw Sweep) error {
			_, err := RunPipelineDepth(ctx, 2, []int{1, 2}, opts(sw))
			return err
		}},
		{"RunMultiNode", "multinode-weak-scaling", 2 * 3, func(ctx context.Context, sw Sweep) error {
			o := multiNodeTestOptions()
			o.Sweep = sw
			_, err := RunMultiNode(ctx, WeakScaling, o)
			return err
		}},
		{"RunPrecision", "precision-sweep", 2*2*3 + 3, func(ctx context.Context, sw Sweep) error {
			o := precisionTestOptions()
			o.Sweep, o.Batches = sw, 1
			_, err := RunPrecision(ctx, o)
			return err
		}},
		{"RunServing", "serving", 2, func(ctx context.Context, sw Sweep) error {
			base, hw := servingTestBase(), servingTestHW()
			_, err := RunServing(ctx, ServingOptions{
				Sweep: sw, Rates: []float64{1500}, CacheFractions: []float64{0},
				Duration: 200 * sim.Millisecond, Base: &base, HW: &hw,
			})
			return err
		}},
		{"RunChaos", "chaos", 2 * 2 * 2, func(ctx context.Context, sw Sweep) error {
			o := chaosTestOptions()
			o.Sweep = sw
			_, err := RunChaos(ctx, o)
			return err
		}},
		{"RunPlacement", "placement", 2 * 4, func(ctx context.Context, sw Sweep) error {
			o := placementTestOptions()
			o.Sweep = sw
			_, err := RunPlacement(ctx, o)
			return err
		}},
	}
}

// Every sweep entry point honours a context cancelled before it starts.
func TestExperimentContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, ep := range entryPoints() {
		t.Run(ep.name, func(t *testing.T) {
			if err := ep.run(ctx, Sweep{Parallel: 2}); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		})
	}
}

// Every entry point opens one bench record, under its own name and worker
// count, and notes one timed run per job.
func TestBenchRecordsExperiments(t *testing.T) {
	for _, ep := range entryPoints() {
		t.Run(ep.name, func(t *testing.T) {
			b := NewBench()
			if err := ep.run(context.Background(), Sweep{Parallel: 2, Bench: b}); err != nil {
				t.Fatal(err)
			}
			rep := b.Report()
			if len(rep.Experiments) != 1 {
				t.Fatalf("recorded %d experiments, want 1", len(rep.Experiments))
			}
			e := rep.Experiments[0]
			if e.Name != ep.bench || e.Parallel != 2 || e.Runs != ep.jobs {
				t.Fatalf("record %+v, want name %q, parallel 2, %d runs", e, ep.bench, ep.jobs)
			}
			if e.WallSeconds <= 0 || e.RunSeconds <= 0 || e.Speedup <= 0 {
				t.Fatalf("timings not recorded: %+v", e)
			}
			if rep.TotalWallSeconds <= 0 || rep.GoMaxProcs <= 0 {
				t.Fatalf("report totals missing: %+v", rep)
			}
		})
	}
}

// A negative value in a "0 = default" shared field is an error naming the
// field, never a silent default, on every entry point family.
func TestSweepsRefuseNegativeSharedFields(t *testing.T) {
	ctx := context.Background()
	for _, ep := range entryPoints() {
		t.Run(ep.name+"/Parallel", func(t *testing.T) {
			err := ep.run(ctx, Sweep{Parallel: -1})
			if err == nil || !strings.Contains(err.Error(), "Parallel must be >= 0") {
				t.Fatalf("err = %v, want a Parallel error", err)
			}
		})
	}
	// Each entry point taking batch overrides, with the fields it has.
	both := []string{"Batches", "BatchSize"}
	sized := []struct {
		name   string
		fields []string
		run    func(batches, batchSize int) error
	}{
		{"RunScaling", both, func(b, s int) error {
			_, err := RunScaling(ctx, WeakScaling, Options{Batches: b, BatchSize: s})
			return err
		}},
		{"RunCommVolume", both, func(b, s int) error {
			_, err := RunCommVolume(ctx, WeakScaling, 2, 50, Options{Batches: b, BatchSize: s})
			return err
		}},
		{"RunScalingStats", both, func(b, s int) error {
			_, err := RunScalingStats(ctx, WeakScaling, 2, Options{Batches: b, BatchSize: s})
			return err
		}},
		{"RunAblations", both, func(b, s int) error {
			_, err := RunAblations(ctx, 2, Options{Batches: b, BatchSize: s})
			return err
		}},
		{"RunPipelineDepth", both, func(b, s int) error {
			_, err := RunPipelineDepth(ctx, 2, nil, Options{Batches: b, BatchSize: s})
			return err
		}},
		{"RunMultiNode", both, func(b, s int) error {
			_, err := RunMultiNode(ctx, WeakScaling, MultiNodeOptions{Batches: b, BatchSize: s})
			return err
		}},
		{"RunPrecision", both, func(b, s int) error {
			_, err := RunPrecision(ctx, PrecisionOptions{Batches: b, BatchSize: s})
			return err
		}},
		{"RunPlacement", []string{"Batches"}, func(b, _ int) error {
			_, err := RunPlacement(ctx, PlacementOptions{Batches: b})
			return err
		}},
	}
	for _, sz := range sized {
		for _, field := range sz.fields {
			t.Run(sz.name+"/"+field, func(t *testing.T) {
				batches, batchSize := -1, 0
				if field == "BatchSize" {
					batches, batchSize = 0, -1
				}
				err := sz.run(batches, batchSize)
				if err == nil || !strings.Contains(err.Error(), field+" must be >= 0") {
					t.Fatalf("err = %v, want a %s error", err, field)
				}
			})
		}
	}
}

// The baseline-vs-accelerated sweeps take one accelerated backend, and no
// sweep takes a nil one.
func TestSweepsRefuseBadBackends(t *testing.T) {
	two := fastOpts(1)
	two.Backends = []retrieval.Backend{&retrieval.PGASFused{}, &retrieval.PGASFused{StageRemote: true}}
	if _, err := RunScaling(context.Background(), WeakScaling, two); err == nil ||
		!strings.Contains(err.Error(), "accelerated column alone") {
		t.Errorf("two accelerated backends: err = %v", err)
	}
	for _, ep := range entryPoints() {
		if err := ep.run(context.Background(), Sweep{Backends: []retrieval.Backend{nil}}); err == nil ||
			!strings.Contains(err.Error(), "Backends[0] is nil") {
			t.Errorf("%s: nil backend: err = %v", ep.name, err)
		}
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
