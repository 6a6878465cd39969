package experiments

import (
	"encoding/json"
	"io"
	"runtime"
	"sync"
	"time"
)

// Bench records host-side timing for a sequence of experiments: each
// experiment's wall-clock time, the summed duration of its individual
// simulation runs, and the parallelism it dispatched with. The ratio of
// run-seconds to wall-seconds is the realised speedup of the worker pool.
// A nil *Bench is valid and records nothing.
type Bench struct {
	mu          sync.Mutex
	cur         *BenchExperiment
	experiments []*BenchExperiment
}

// BenchExperiment is one experiment's timing record.
type BenchExperiment struct {
	Name string `json:"name"`
	// Parallel is the worker count the experiment dispatched runs with.
	Parallel int `json:"parallel"`
	// Runs counts the individual simulation runs executed.
	Runs int `json:"runs"`
	// WallSeconds is the experiment's host wall-clock time.
	WallSeconds float64 `json:"wall_seconds"`
	// RunSeconds sums the wall-clock time of every simulation run — the
	// serial work the pool spread over its workers.
	RunSeconds float64 `json:"run_seconds"`
	// Speedup is RunSeconds/WallSeconds: the realised pool speedup.
	Speedup float64 `json:"speedup"`
}

// NewBench returns an empty recorder.
func NewBench() *Bench { return &Bench{} }

// Start opens a new experiment record and returns the closure that seals it
// (measuring wall-clock time in between). Experiments are recorded one at a
// time; runs noted while the record is open are attributed to it.
func (b *Bench) Start(name string, parallel int) func() {
	if b == nil {
		return func() {}
	}
	b.mu.Lock()
	e := &BenchExperiment{Name: name, Parallel: parallel}
	b.experiments = append(b.experiments, e)
	b.cur = e
	b.mu.Unlock()
	start := time.Now()
	return func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		e.WallSeconds = time.Since(start).Seconds()
		if e.WallSeconds > 0 {
			e.Speedup = e.RunSeconds / e.WallSeconds
		}
		if b.cur == e {
			b.cur = nil
		}
	}
}

// noteRun attributes one simulation run's host time to the open experiment.
func (b *Bench) noteRun(d time.Duration) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.cur == nil {
		return
	}
	b.cur.Runs++
	b.cur.RunSeconds += d.Seconds()
}

// BenchReport is the machine-readable summary written to bench.json.
type BenchReport struct {
	GoMaxProcs       int                `json:"gomaxprocs"`
	TotalWallSeconds float64            `json:"total_wall_seconds"`
	TotalRunSeconds  float64            `json:"total_run_seconds"`
	Experiments      []*BenchExperiment `json:"experiments"`
}

// Report assembles the recorded experiments into a report.
func (b *Bench) Report() *BenchReport {
	rep := &BenchReport{GoMaxProcs: runtime.GOMAXPROCS(0)}
	if b == nil {
		return rep
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, e := range b.experiments {
		c := *e
		rep.Experiments = append(rep.Experiments, &c)
		rep.TotalWallSeconds += e.WallSeconds
		rep.TotalRunSeconds += e.RunSeconds
	}
	return rep
}

// WriteJSON writes the report as indented JSON.
func (b *Bench) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b.Report())
}
