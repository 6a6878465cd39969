package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"pgasemb/internal/retrieval"
)

// The experiment engine dispatches independent simulation runs across a
// bounded pool of host goroutines. Every sweep writes its results into
// index-addressed slices, so the assembled tables are byte-identical
// whatever the worker count: parallelism changes wall-clock time, never
// output. The spec/run split makes this safe — all runs of a sweep point
// share one immutable SystemSpec and own the rest of their state.

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

// Sweep is what every sweep shares: the backends it runs, the bound on its
// worker pool and its host-timing recorder. Every options struct embeds it.
type Sweep struct {
	// Backends are the backends the sweep runs. The baseline-vs-accelerated
	// sweeps (Options, MultiNodeOptions) take at most one: the accelerated
	// column (empty = pgas-fused), beside a baseline column that always
	// runs; RunAblations runs its fixed suite instead. The grid sweeps
	// (precision, serving, chaos, placement) sweep every entry (empty = the
	// sweep's default set).
	Backends []retrieval.Backend
	// Parallel bounds the number of runs executed concurrently
	// (0 = GOMAXPROCS). Results are identical for every value; only
	// wall-clock time changes.
	Parallel int
	// Bench, when set, records the sweep's wall-clock time and the host time
	// of every run.
	Bench *Bench
}

func (s Sweep) parallel() int {
	if s.Parallel == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return s.Parallel
}

// runJobs is every sweep's dispatch: it opens the bench record `name`, runs
// job(0) .. job(n-1) on the worker pool, notes each job's host time, and
// seals the record. Results land in an index-addressed slice, so they are
// identical at any Parallel. A negative Parallel or a nil backend is
// refused before anything runs.
func runJobs[T any](ctx context.Context, s Sweep, name string, n int, job func(i int) (T, error)) ([]T, error) {
	if s.Parallel < 0 {
		return nil, fmt.Errorf("experiments: Parallel must be >= 0 (0 = GOMAXPROCS), got %d", s.Parallel)
	}
	for i, b := range s.Backends {
		if b == nil {
			return nil, fmt.Errorf("experiments: Backends[%d] is nil", i)
		}
	}
	out := make([]T, n)
	stop := s.Bench.Start(name, s.parallel())
	defer stop()
	err := forEach(ctx, s.parallel(), n, func(i int) error {
		start := time.Now()
		r, err := job(i)
		s.Bench.noteRun(time.Since(start))
		out[i] = r
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// versus runs the baseline beside the accelerated backend at each of
// `points` sweep points: job 2p is point p's baseline run and job 2p+1 its
// accelerated run, and the results come back in that order.
func versus[T any](ctx context.Context, s Sweep, name string, points int, job func(p int, b retrieval.Backend) (T, error)) ([]T, error) {
	var acc retrieval.Backend = &retrieval.PGASFused{}
	switch len(s.Backends) {
	case 0:
	case 1:
		acc = s.Backends[0]
	default:
		return nil, fmt.Errorf("experiments: Backends holds the accelerated column alone, got %d backends", len(s.Backends))
	}
	return runJobs(ctx, s, name, 2*points, func(i int) (T, error) {
		if i%2 == 0 {
			return job(i/2, &retrieval.Baseline{})
		}
		return job(i/2, acc)
	})
}

// runSpec executes one simulation run of the spec with the given backend and
// seed.
func runSpec(ctx context.Context, spec *retrieval.SystemSpec, backend retrieval.Backend, seed uint64) (*retrieval.Result, error) {
	sys, err := spec.NewRunWithSeed(seed)
	if err != nil {
		return nil, err
	}
	return sys.RunContext(ctx, backend)
}

// hardware is every sweep's hardware rule: the HW override when set, else
// the default machine on `nodes` NVLink nodes.
func hardware(hw *retrieval.HardwareParams, nodes int) retrieval.HardwareParams {
	if hw != nil {
		return *hw
	}
	return retrieval.ClusterHardware(nodes)
}

// resize applies the batch overrides the offline sweeps share: a positive
// Batches or BatchSize replaces the configuration's, zero keeps it, and a
// negative one is refused by name.
func resize(cfg retrieval.Config, batches, batchSize int) (retrieval.Config, error) {
	switch {
	case batches < 0:
		return cfg, fmt.Errorf("Batches must be >= 0 (0 = the configuration's), got %d", batches)
	case batchSize < 0:
		return cfg, fmt.Errorf("BatchSize must be >= 0 (0 = the configuration's), got %d", batchSize)
	}
	if batches > 0 {
		cfg.Batches = batches
	}
	if batchSize > 0 {
		cfg.BatchSize = batchSize
	}
	return cfg, nil
}

// orDefault returns a sweep knob's value, or def when it is not positive.
func orDefault[T int | float64](v, def T) T {
	if v > 0 {
		return v
	}
	return def
}

// orList returns a sweep axis, or def when it is empty.
func orList[T any](v, def []T) []T {
	if len(v) > 0 {
		return v
	}
	return def
}
