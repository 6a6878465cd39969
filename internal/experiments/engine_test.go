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

// runSweep runs one sweep on the engine as an entry of its own and returns
// its result.
func runSweep[T any](t testing.TB, s sweep[T]) T {
	t.Helper()
	var res T
	e := Entry{Name: "test", build: func(Overrides) (sweep[[]Output], error) {
		return rendered(s, func(r T) []Output { res = r; return nil }), nil
	}}
	if _, err := Run(context.Background(), []Entry{e}, Overrides{}); err != nil {
		t.Fatal(err)
	}
	return res
}

// manifestRun is one engine run of the whole manifest at one batch and one
// seed, on `parallel` workers, with its bench records.
type manifestRun struct {
	files [][]Output
	bench *BenchReport
}

var manifestRuns sync.Map // parallel -> *manifestRun

// runManifest runs the whole manifest at test size on `parallel` workers,
// once per worker count for the package's tests.
func runManifest(t *testing.T, parallel int) *manifestRun {
	t.Helper()
	if r, ok := manifestRuns.Load(parallel); ok {
		return r.(*manifestRun)
	}
	b := NewBench()
	files, err := Run(context.Background(), manifest, Overrides{Batches: 1, Seeds: 1, Parallel: parallel, Bench: b})
	if err != nil {
		t.Fatal(err)
	}
	r, _ := manifestRuns.LoadOrStore(parallel, &manifestRun{files, b.Report()})
	return r.(*manifestRun)
}

// The engine's core guarantee: every file of every entry, run in one pool,
// is byte-identical at 1 and 4 workers, and each entry renders one
// non-empty file per stem, named after it.
func TestManifestDeterministicAcrossParallelism(t *testing.T) {
	serial, parallel := runManifest(t, 1), runManifest(t, 4)
	for i, e := range manifest {
		t.Run(e.Name, func(t *testing.T) {
			s, p := serial.files[i], parallel.files[i]
			if len(s) != len(e.Stems) || len(p) != len(e.Stems) {
				t.Fatalf("rendered %d and %d files for %d stems", len(s), len(p), len(e.Stems))
			}
			for j, out := range s {
				if out.Stem != e.Stems[j] {
					t.Errorf("file %d is %s, want %s", j, out.Stem, e.Stems[j])
				}
				if out.Table == nil && out.Text == "" || out.Table != nil && len(out.Table.Rows) == 0 {
					t.Errorf("%s rendered empty", out.Stem)
				}
				if render(out) != render(p[j]) {
					t.Errorf("%s differs between Parallel=1 and Parallel=4:\n%s\nvs\n%s", out.Stem, render(out), render(p[j]))
				}
			}
		})
	}
}

// render is every byte an output writes.
func render(out Output) string {
	if out.Table == nil {
		return out.Text
	}
	return out.Table.Render() + out.Table.CSV()
}

// The engine writes one bench record per entry, named after it, with the
// pool's worker count and one timed run per declared point.
func TestBenchRecordsExperiments(t *testing.T) {
	rep := runManifest(t, 4).bench
	if len(rep.Experiments) != len(manifest) {
		t.Fatalf("recorded %d experiments, want one per entry (%d)", len(rep.Experiments), len(manifest))
	}
	if rep.TotalWallSeconds <= 0 || rep.TotalRunSeconds <= 0 || rep.GoMaxProcs <= 0 {
		t.Fatalf("report totals missing: %+v", rep)
	}
	for i, e := range manifest {
		t.Run(e.Name, func(t *testing.T) {
			s, err := e.build(Overrides{Batches: 1, Seeds: 1})
			if err != nil {
				t.Fatal(err)
			}
			r := rep.Experiments[i]
			if r.Name != e.Name || r.Parallel != 4 || r.Runs != len(s.points) {
				t.Errorf("record %+v, want name %q, parallel 4, %d runs", r, e.Name, len(s.points))
			}
			if r.WallSeconds <= 0 || r.RunSeconds <= 0 || r.Speedup <= 0 {
				t.Errorf("timings not recorded: %+v", r)
			}
		})
	}
}

// The engine honours a context cancelled before it starts, for the whole
// manifest and for every entry run alone.
func TestExperimentContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, manifest, Overrides{Parallel: 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("manifest: err = %v, want context.Canceled", err)
	}
	for _, e := range manifest {
		t.Run(e.Name, func(t *testing.T) {
			b := NewBench()
			if _, err := Run(ctx, []Entry{e}, Overrides{Parallel: 2, Bench: b}); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if rep := b.Report(); len(rep.Experiments) != 0 {
				t.Fatalf("a cancelled run recorded %+v", rep.Experiments)
			}
		})
	}
}

// A negative value in a "0 = default" override is an error naming the
// field, never a silent default, and is refused before anything runs:
// for the whole manifest and for every entry run alone.
func TestSweepsRefuseNegativeSharedFields(t *testing.T) {
	fields := []struct {
		name string
		o    Overrides
	}{
		{"Parallel", Overrides{Parallel: -1}},
		{"Batches", Overrides{Batches: -1}},
		{"Seeds", Overrides{Seeds: -1}},
	}
	for _, f := range fields {
		if _, err := Run(context.Background(), manifest, f.o); err == nil || !strings.Contains(err.Error(), f.name+" must be >= 0") {
			t.Errorf("manifest: err = %v, want a %s error", err, f.name)
		}
	}
	for _, e := range manifest {
		for _, f := range fields {
			t.Run(e.Name+"/"+f.name, func(t *testing.T) {
				o := f.o
				o.Bench = NewBench()
				if _, err := Run(context.Background(), []Entry{e}, o); err == nil || !strings.Contains(err.Error(), f.name+" must be >= 0") {
					t.Errorf("err = %v, want a %s error", err, f.name)
				}
				if rep := o.Bench.Report(); len(rep.Experiments) != 0 {
					t.Errorf("a refused run recorded %+v", rep.Experiments)
				}
			})
		}
	}
}

// The overrides take one accelerated backend, never a nil one, whatever
// entries run.
func TestSweepsRefuseBadBackends(t *testing.T) {
	two := []retrieval.Backend{&retrieval.PGASFused{}, &retrieval.PGASFused{StageRemote: true}}
	check := func(t *testing.T, entries []Entry) {
		t.Helper()
		if _, err := Run(context.Background(), entries, Overrides{Backends: two}); err == nil ||
			!strings.Contains(err.Error(), "accelerated backend alone") {
			t.Errorf("two accelerated backends: err = %v", err)
		}
		if _, err := Run(context.Background(), entries, Overrides{Backends: []retrieval.Backend{nil}}); err == nil ||
			!strings.Contains(err.Error(), "Backends[0] is nil") {
			t.Errorf("nil backend: err = %v", err)
		}
	}
	check(t, manifest)
	for _, e := range manifest {
		t.Run(e.Name, func(t *testing.T) { check(t, []Entry{e}) })
	}
}

func TestBenchNilSafe(t *testing.T) {
	var b *Bench
	b.record("x", 1, []span{{}})
	b.addWall(1)
	if rep := b.Report(); len(rep.Experiments) != 0 || rep.TotalWallSeconds != 0 {
		t.Fatal("nil bench recorded experiments")
	}
}
