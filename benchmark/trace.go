package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// span is one timed call into a layer's public entry point, recorded by the
// benchmark from outside the layer. Start and Dur are host wall-clock
// microseconds since the recorder started; Args["cpu_us"] is the host CPU
// time the process spent during the span. Values are kept as the exact
// float64s the trace file holds, so metrics derived from a written trace
// equal those derived in memory.
type span struct {
	ID     int
	Parent int // 0 for a root span
	Name   string
	Start  float64
	Dur    float64
	Args   map[string]float64

	cpu0 float64 // process CPU seconds when the span began
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced runs and untraced passes call the same code.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // indices of the spans begun and not yet ended, innermost last
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() float64 { return float64(time.Since(t.t0).Nanoseconds()) / 1e3 }

// begin opens a span under the innermost open span and returns its handle.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: t.now(), cpu0: cpuSeconds()})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes span h, attaching the given counts and the CPU time it took.
// Spans close innermost first.
func (t *tracer) end(h int, args map[string]float64) {
	if t == nil {
		return
	}
	sp := &t.spans[h]
	sp.Dur = t.now() - sp.Start
	if args == nil {
		args = map[string]float64{}
	}
	args["cpu_us"] = (cpuSeconds() - sp.cpu0) * 1e6
	sp.Args = args
	t.open = t.open[:len(t.open)-1]
}

// write stores the spans as Chrome trace-event JSON: one complete ("X")
// event per span, with the span and parent ids among its args.
func (t *tracer) write(path string) error {
	type event struct {
		Name string             `json:"name"`
		Ph   string             `json:"ph"`
		Ts   float64            `json:"ts"`
		Dur  float64            `json:"dur"`
		Pid  int                `json:"pid"`
		Tid  int                `json:"tid"`
		Args map[string]float64 `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, sp := range t.spans {
		args := map[string]float64{"id": float64(sp.ID), "parent": float64(sp.Parent)}
		for k, v := range sp.Args {
			args[k] = v
		}
		events[i] = event{Name: sp.Name, Ph: "X", Ts: sp.Start, Dur: sp.Dur, Pid: 1, Tid: 1, Args: args}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// hostMetrics derives the per-layer host-time metrics from a run's spans.
// Every value is a function of the spans' CPU times and counts alone, so
// the same numbers follow from the trace file the run writes. CPU time
// rather than wall time keeps out the time a shared host's other tenants
// hold the CPU.
func hostMetrics(spans []span) map[string]float64 {
	byName := map[string][]span{}
	nameOf := map[int]string{}
	for _, sp := range spans {
		byName[sp.Name] = append(byName[sp.Name], sp)
		nameOf[sp.ID] = sp.Name
	}
	meanCPU := func(names ...string) float64 {
		var sum float64
		var n int
		for _, name := range names {
			for _, sp := range byName[name] {
				sum += sp.Args["cpu_us"]
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	// perUnit differences the calls of a loop entry point with the most and
	// the fewest iterations, which pay the same one-off input generation, and
	// divides by the extra iterations: the cost of one loop iteration.
	perUnit := func(name, arg string) float64 {
		sps := byName[name]
		if len(sps) < 2 {
			return 0
		}
		lo, hi := sps[0], sps[0]
		for _, sp := range sps {
			if sp.Args["n"] < lo.Args["n"] {
				lo = sp
			}
			if sp.Args["n"] > hi.Args["n"] {
				hi = sp
			}
		}
		dn := hi.Args["n"] - lo.Args["n"]
		if dn <= 0 {
			return 0
		}
		return (hi.Args[arg] - lo.Args[arg]) / dn
	}

	m := map[string]float64{
		"setup.spec_s":                  meanCPU("retrieval.NewSystemSpec") / 1e6,
		"setup.model_s":                 meanCPU("dlrm.NewModel") / 1e6,
		"setup.server_s":                meanCPU("serve.NewServer") / 1e6,
		"workload.gen_ms":               meanCPU("workload.NextSummary", "workload.NextBatch") / 1e3,
		"retrieval.plan_compile_ms":     perUnit("retrieval.PlanCompileLoop", "cpu_us") / 1e3,
		"retrieval.plan_compile_allocs": perUnit("retrieval.PlanCompileLoop", "allocs"),
		"retrieval.batch_ms":            perUnit("retrieval.BenchLoop", "cpu_us") / 1e3,
		"retrieval.batch_allocs":        perUnit("retrieval.BenchLoop", "allocs"),
		"serve.dispatch_ms":             0,
		"serve.run_setup_ms":            0,
		"serve.run_setup_allocs":        0,
		"sim.host_us_per_event":         0,
		"trace.overhead_pct":            0,
	}
	if ev := perUnit("retrieval.BenchLoop", "events"); ev > 0 {
		m["sim.host_us_per_event"] = perUnit("retrieval.BenchLoop", "cpu_us") / ev
	}
	var runCPU, dispatches float64
	for _, sp := range byName["serve.Server.Run"] {
		runCPU += sp.Args["cpu_us"]
		dispatches += sp.Args["dispatches"]
	}
	if dispatches > 0 {
		m["serve.dispatch_ms"] = runCPU / dispatches / 1e3
	}
	// The serving workload's dispatch-setup probe; inference passes call
	// dlrm.NewPipelineRun too, outside that probe.
	var setupCPU, setupAllocs float64
	var setups int
	for _, sp := range byName["dlrm.NewPipelineRun"] {
		if nameOf[sp.Parent] == "probe.run_setup" {
			setupCPU += sp.Args["cpu_us"]
			setupAllocs += sp.Args["allocs"]
			setups++
		}
	}
	if setups > 0 {
		m["serve.run_setup_ms"] = setupCPU / float64(setups) / 1e3
		m["serve.run_setup_allocs"] = setupAllocs / float64(setups)
	}
	var traced, untraced []float64
	for _, sp := range byName["pass"] {
		if sp.Args["traced"] == 1 {
			traced = append(traced, sp.Args["cpu_us"])
		} else {
			untraced = append(untraced, sp.Args["cpu_us"])
		}
	}
	if len(traced) > 0 && len(untraced) > 0 {
		m["trace.overhead_pct"] = (median(traced) - median(untraced)) / median(untraced) * 100
	}
	return m
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
