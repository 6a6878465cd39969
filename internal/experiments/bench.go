package experiments

import (
	"encoding/json"
	"io"
	"runtime"
	"time"
)

// Bench records host-side timing per manifest entry: each entry's
// wall-clock time, the summed duration of its individual simulation runs,
// and the parallelism it ran with. The ratio of run-seconds to wall-seconds
// is the realised speedup of the worker pool. A nil *Bench is valid and
// records nothing.
type Bench struct {
	experiments []*BenchExperiment
	wall        time.Duration
}

// BenchExperiment is one manifest entry's timing record.
type BenchExperiment struct {
	Name string `json:"name"`
	// Parallel is the worker count of the pool the entry's runs shared.
	Parallel int `json:"parallel"`
	// Runs counts the individual simulation runs executed.
	Runs int `json:"runs"`
	// WallSeconds is the entry's host wall-clock time, from its first run's
	// start to its last run's end. Entries share one pool, so their walls
	// overlap.
	WallSeconds float64 `json:"wall_seconds"`
	// RunSeconds sums the wall-clock time of every simulation run — the
	// serial work the pool spread over its workers.
	RunSeconds float64 `json:"run_seconds"`
	// Speedup is RunSeconds/WallSeconds: the realised pool speedup.
	Speedup float64 `json:"speedup"`
}

// NewBench returns an empty recorder.
func NewBench() *Bench { return &Bench{} }

// record adds the record of entry `name` from the host times of its runs.
func (b *Bench) record(name string, parallel int, runs []span) {
	if b == nil {
		return
	}
	e := &BenchExperiment{Name: name, Parallel: parallel, Runs: len(runs)}
	if len(runs) > 0 {
		first, last := runs[0].start, runs[0].end
		for _, r := range runs {
			e.RunSeconds += r.end.Sub(r.start).Seconds()
			if r.start.Before(first) {
				first = r.start
			}
			if r.end.After(last) {
				last = r.end
			}
		}
		e.WallSeconds = last.Sub(first).Seconds()
	}
	if e.WallSeconds > 0 {
		e.Speedup = e.RunSeconds / e.WallSeconds
	}
	b.experiments = append(b.experiments, e)
}

// addWall adds one engine run's wall-clock time to the total.
func (b *Bench) addWall(d time.Duration) {
	if b != nil {
		b.wall += d
	}
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
	rep.TotalWallSeconds = b.wall.Seconds()
	for _, e := range b.experiments {
		c := *e
		rep.Experiments = append(rep.Experiments, &c)
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
