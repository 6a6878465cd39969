package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pgasemb/internal/dlrm"
	"pgasemb/internal/retrieval"
	"pgasemb/internal/serve"
)

// The experiment engine. Every sweep is a declaration: the points it runs,
// each one independent simulation run, and an assembler that turns their
// outcomes into the sweep's result. Run gathers the points of every entry it
// is given and runs them all on one bounded pool of host goroutines, so no
// worker idles at the tail of one entry while another has points left.
// Outcomes land in an index-addressed slice, so the rendered files are
// byte-identical whatever the worker count: parallelism changes wall-clock
// time, never output. Every point builds and owns its run; nothing mutable
// is shared between points.

// runKind selects what a point runs.
type runKind int

const (
	systemRun   runKind = iota // an offline retrieval.System run
	pipelineRun                // an end-to-end dlrm pipeline run
	serveRun                   // a serve session over an arrival window
)

// point is one simulation run of a sweep: the configuration, whose Seed is
// the run's seed, the hardware, the backend, and what to run them as.
type point struct {
	kind    runKind
	cfg     retrieval.Config
	hw      retrieval.HardwareParams
	backend retrieval.Backend
	// serve holds the session's arrival and batching knobs (serve runs
	// only).
	serve serve.Config
}

// outcome is a point's result: the field of its kind is set.
type outcome struct {
	sys   *retrieval.Result
	pipe  *dlrm.PipelineResult
	serve *serve.Result
}

// run executes the point. It returns early when ctx is done.
func (p point) run(ctx context.Context) (outcome, error) {
	switch p.kind {
	case pipelineRun:
		pl, err := dlrm.NewPipeline(p.cfg, p.hw, p.backend)
		if err != nil {
			return outcome{}, err
		}
		r, err := pl.RunContext(ctx)
		return outcome{pipe: r}, err
	case serveRun:
		srv, err := serve.NewServer(p.cfg, p.hw, p.backend, p.serve)
		if err != nil {
			return outcome{}, err
		}
		r, err := srv.RunContext(ctx)
		return outcome{serve: r}, err
	}
	sys, err := retrieval.NewSystem(p.cfg, p.hw)
	if err != nil {
		return outcome{}, err
	}
	r, err := sys.RunContext(ctx, p.backend)
	return outcome{sys: r}, err
}

// pair declares a configuration's baseline run followed by its run on acc:
// the two columns of the baseline-vs-accelerated sweeps.
func pair(cfg retrieval.Config, hw retrieval.HardwareParams, acc retrieval.Backend) []point {
	return []point{{cfg: cfg, hw: hw, backend: &retrieval.Baseline{}}, {cfg: cfg, hw: hw, backend: acc}}
}

// sweep is a declared sweep: its points, and the assembler that turns their
// outcomes, in point order, into the sweep's result.
type sweep[T any] struct {
	points []point
	result func(outs []outcome) T
}

// join appends s's points to *pts and returns s's assembler, reading s's
// outcomes out of the joined list's: how an entry runs several sweeps, and
// Run every entry, as one list of points.
func join[T any](pts *[]point, s sweep[T]) func([]outcome) T {
	lo := len(*pts)
	*pts = append(*pts, s.points...)
	hi := len(*pts)
	return func(outs []outcome) T { return s.result(outs[lo:hi]) }
}

// Overrides are what one run of the engine may change across its entries.
// A zero field keeps each entry's committed value.
type Overrides struct {
	// Backends holds at most one backend, the accelerated one
	// (empty = pgas-fused). Every entry runs it beside the baseline: as the
	// accelerated column of the baseline-vs-accelerated sweeps, and as the
	// second backend of the grid sweeps (precision, placement, chaos,
	// serving). The ablation suite runs its fixed backends regardless.
	Backends []retrieval.Backend
	// Parallel bounds the number of runs executed concurrently
	// (0 = GOMAXPROCS). Results are identical for every value; only
	// wall-clock time changes.
	Parallel int
	// Bench, when set, records each entry's host timing.
	Bench *Bench
	// Batches replaces the batch count of every entry that counts batches:
	// all but chaos and serving, which run a simulated arrival window.
	Batches int
	// Seeds replaces the stats entry's 3 workload seeds.
	Seeds int
}

// validate refuses overrides no entry can run with, by field name.
func (o Overrides) validate() error {
	switch {
	case o.Parallel < 0:
		return fmt.Errorf("experiments: Parallel must be >= 0 (0 = GOMAXPROCS), got %d", o.Parallel)
	case o.Batches < 0:
		return fmt.Errorf("experiments: Batches must be >= 0 (0 = each entry's committed count), got %d", o.Batches)
	case o.Seeds < 0:
		return fmt.Errorf("experiments: Seeds must be >= 0 (0 = the committed 3), got %d", o.Seeds)
	case len(o.Backends) > 1:
		return fmt.Errorf("experiments: Backends holds the accelerated backend alone, got %d", len(o.Backends))
	case len(o.Backends) == 1 && o.Backends[0] == nil:
		return errors.New("experiments: Backends[0] is nil")
	}
	return nil
}

// accelerated is the backend every entry runs beside the baseline.
func (o Overrides) accelerated() retrieval.Backend {
	if len(o.Backends) == 1 {
		return o.Backends[0]
	}
	return &retrieval.PGASFused{}
}

// grid is the backend axis of the grid sweeps: the baseline, then the
// accelerated backend.
func (o Overrides) grid() []retrieval.Backend {
	return []retrieval.Backend{&retrieval.Baseline{}, o.accelerated()}
}

func (o Overrides) parallel() int {
	if o.Parallel == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Parallel
}

// Run runs the entries under o and returns each entry's rendered files, one
// per stem, in entry order. It validates the overrides and declares every
// entry's points before any run starts, then runs all points on one pool of
// o.Parallel workers. The worker that finishes an entry's last point renders
// the entry and drops its outcomes, so an entry's results live no longer
// than they would in a pool of its own. It returns early when ctx is done.
func Run(ctx context.Context, entries []Entry, o Overrides) ([][]Output, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	var pts []point
	// Entry e's points are pts[from(e):ends[e]].
	ends := make([]int, len(entries))
	from := func(e int) int {
		if e == 0 {
			return 0
		}
		return ends[e-1]
	}
	renders := make([]func([]outcome) []Output, len(entries))
	left := make([]atomic.Int64, len(entries))
	for e, entry := range entries {
		s, err := entry.build(o)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", entry.Name, err)
		}
		renders[e] = join(&pts, s)
		ends[e] = len(pts)
		left[e].Store(int64(len(s.points)))
	}
	outs := make([]outcome, len(pts))
	spans := make([]span, len(pts))
	files := make([][]Output, len(entries))
	start := time.Now()
	err := forEach(ctx, o.parallel(), len(pts), func(i int) error {
		p, e := pts[i], sort.SearchInts(ends, i+1)
		spans[i].start = time.Now()
		var err error
		outs[i], err = p.run(ctx)
		spans[i].end = time.Now()
		if err != nil {
			return fmt.Errorf("experiments: %s, %s on %d GPU(s): %w", entries[e].Name, p.backend.Name(), p.cfg.GPUs, err)
		}
		if left[e].Add(-1) == 0 {
			files[e] = renders[e](outs)
			clear(outs[from(e):ends[e]])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	o.Bench.addWall(time.Since(start))
	for e, entry := range entries {
		if len(files[e]) != len(entry.Stems) {
			return nil, fmt.Errorf("experiments: %s rendered %d files for %d stems", entry.Name, len(files[e]), len(entry.Stems))
		}
		for j := range files[e] {
			files[e][j].Stem = entry.Stems[j]
		}
		o.Bench.record(entry.Name, o.parallel(), spans[from(e):ends[e]])
	}
	return files, nil
}

// span is one point's host run time.
type span struct{ start, end time.Time }

// forEach runs fn(0) .. fn(n-1) on at most `workers` goroutines and waits
// for all of them. The first error cancels the remaining jobs; the error
// reported is the lowest-index real failure among the jobs that ran
// (cancellations caused by another job's failure or by ctx are only
// reported when nothing else failed), so a failing sweep surfaces a real
// job error, never a bare cancellation. With workers == 1 this is exactly
// the error a serial loop would hit.
func forEach(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	jobs := make(chan int)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				if err := fn(i); err != nil {
					errs[i] = err
					cancel()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		select {
		case jobs <- i:
		case <-ctx.Done():
			for j := i; j < n; j++ {
				if errs[j] == nil {
					errs[j] = ctx.Err()
				}
			}
			i = n
		}
	}
	close(jobs)
	wg.Wait()
	var cancelled error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) && cancelled == nil {
			cancelled = err
			continue
		}
		if !errors.Is(err, context.Canceled) {
			return err
		}
	}
	return cancelled
}

// orDefault returns a sweep knob's value, or def when it is not positive.
func orDefault[T int | float64](v, def T) T {
	if v > 0 {
		return v
	}
	return def
}

// sized returns cfg with a positive batches or batchSize replacing the
// configuration's own; zero keeps it.
func sized(cfg retrieval.Config, batches, batchSize int) retrieval.Config {
	cfg.Batches = orDefault(batches, cfg.Batches)
	cfg.BatchSize = orDefault(batchSize, cfg.BatchSize)
	return cfg
}
