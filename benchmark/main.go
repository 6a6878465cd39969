// Command benchmark measures the simulator end to end and layer by layer on
// four workloads. One run builds a workload's inputs from -seed, checks a
// functional twin against the serial reference, times set-up, then repeats
// the workload's pass for -seconds of wall time. It prints every metric as
// "name value unit" and, as its last line, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"sim_ms": {"value": 94.38, "unit": "ms"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// also records a span around every call into a layer, runs the host-time
// probes, writes the spans as Chrome trace-event JSON and reports the
// per-layer metrics. The exit code is non-zero when any check fails.
//
// Usage:
//
//	bash benchmark/run.sh -workload infer-weak4 -seed 2024 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// Set-up repeats at least minSetups times and until setupBudget has passed,
// at most maxSetups times; setup_s is the median.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = time.Second
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string
	// smoke shrinks every workload's shapes; tests use it.
	smoke bool
	// corruptTwin perturbs a twin output before verification; tests use it.
	corruptTwin bool
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run, or all")
	flag.Uint64Var(&o.seed, "seed", 2024, "seed the workload's inputs are drawn from")
	flag.Float64Var(&o.seconds, "seconds", 10, "wall-clock seconds the measured passes run for")
	flag.IntVar(&trace, "trace", 0, "1 records spans, runs the layer probes and reports per-layer metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "trace file of a -trace 1 run (default .bench_build/trace-<workload>.json)")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintf(os.Stderr, "benchmark: -trace must be 0 or 1, got %d\n", trace)
		os.Exit(2)
	}
	o.trace = trace == 1
	os.Exit(run(o, os.Stdout, os.Stderr))
}

// run executes one workload, or each workload in its own process for
// "all", and returns the exit code.
func run(o options, stdout, stderr io.Writer) int {
	if o.workload == "all" {
		return runAll(o, stdout, stderr)
	}
	w, err := newWorkload(o.workload, o.seed, o.smoke)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	oc := measure(o, w, tr)
	if tr != nil {
		path := o.traceOut
		if path == "" {
			path = filepath.Join(".bench_build", "trace-"+o.workload+".json")
		}
		if err := tr.write(path); err != nil {
			oc.fail("%v", err)
		}
	}
	return report(o, oc, stdout, stderr)
}

// outcome is everything one workload run measured and found wrong.
type outcome struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]float64
	lines     []line
	problems  []string
}

func (oc *outcome) fail(format string, args ...any) {
	oc.correct = false
	oc.problems = append(oc.problems, fmt.Sprintf(format, args...))
}

// measure verifies the twin, times set-up, repeats the measured pass and,
// when tracing, runs the probes.
func measure(o options, w benchWorkload, tr *tracer) (oc outcome) {
	oc = outcome{correct: true, metrics: map[string]float64{}}
	root := tr.begin("workload " + o.workload)
	defer func() {
		if tr != nil {
			tr.end(root, nil)
			for k, v := range hostMetrics(tr.spans) {
				oc.metrics[k] = v
			}
		}
	}()

	h := tr.begin("verify")
	twinErr := w.verify(o.corruptTwin)
	tr.end(h, nil)
	if twinErr != nil {
		oc.fail("verification: %v", twinErr)
	}

	budget := setupBudget
	if o.smoke {
		budget = 0
	}
	var setups []float64
	for start := time.Now(); len(setups) < minSetups ||
		(len(setups) < maxSetups && time.Since(start) < budget); {
		runtime.GC()
		h := tr.begin("setup")
		t0 := cpuSeconds()
		err := w.setup(tr)
		d := cpuSeconds() - t0
		tr.end(h, nil)
		if err != nil {
			oc.fail("setup: %v", err)
			oc.attempted, oc.failed = 1, 1
			return oc
		}
		setups = append(setups, d)
	}

	// A traced run alternates untraced and traced passes, so the two medians
	// give the tracing overhead; it needs at least one of each.
	minPasses := 1
	if tr != nil {
		minPasses = 2
	}
	var first simMetrics
	var hosts []float64
	start := time.Now()
	for i := 0; i < minPasses || time.Since(start).Seconds() < o.seconds; i++ {
		traced := tr != nil && i%2 == 1
		var inner *tracer
		if traced {
			inner = tr
		}
		runtime.GC() // every pass starts from the same heap state
		h := tr.begin("pass")
		t0 := cpuSeconds()
		out, err := w.pass(inner)
		d := cpuSeconds() - t0
		tracedArg := 0.0
		if traced {
			tracedArg = 1
		}
		tr.end(h, map[string]float64{"traced": tracedArg})
		if err != nil {
			oc.fail("pass %d: %v", i+1, err)
			oc.attempted += max(out.ops, 1)
			oc.failed += max(out.ops, 1)
			break
		}
		oc.attempted += out.ops
		oc.failed += out.refused
		if out.refused > 0 {
			oc.fail("pass %d: %d of %d requests refused", i+1, out.refused, out.ops)
		}
		if first == nil {
			first = out.sim
		} else if !first.equal(out.sim) {
			oc.fail("pass %d: simulated metrics differ from pass 1 on the same inputs", i+1)
			oc.failed += out.ops - out.refused
		}
		if !traced {
			hosts = append(hosts, d)
		}
	}
	if twinErr != nil {
		oc.failed = oc.attempted
	}
	if first == nil {
		return oc
	}
	if tr != nil {
		lines, err := w.probe(tr, first)
		if err != nil {
			oc.fail("probe: %v", err)
		}
		oc.lines = lines
	}
	for k, v := range first {
		oc.metrics[k] = v
	}
	oc.metrics["host_s"] = median(hosts)
	oc.metrics["setup_s"] = median(setups)
	oc.metrics["peak_rss_mb"] = peakRSSMB()
	return oc
}

// cpuSeconds returns the host CPU time, user plus system, the process has
// used so far on all its threads. Unlike wall time it leaves out the time
// other tenants of a shared host hold the CPU.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// report prints every metric the run computed as "name value unit", then
// the result object, and returns the exit code.
func report(o options, oc outcome, stdout, stderr io.Writer) int {
	declared := endToEnd
	if o.trace {
		declared = perLayer
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if v, ok := oc.metrics[d.name]; ok {
				fmt.Fprintf(stdout, "%s %s %s\n", d.name, formatValue(v), d.unit)
			}
		}
	}
	for _, l := range oc.lines {
		fmt.Fprintf(stdout, "%s %s %s\n", l.name, formatValue(l.value), l.unit)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Attempted: max(oc.attempted, 1), Failed: oc.failed, Metrics: map[string]value{}}
	for _, d := range declared {
		v, ok := oc.metrics[d.name]
		switch {
		case !ok && o.trace:
			v = 0 // a layer this run never reached
		case !ok:
			oc.fail("metric %s was not measured", d.name)
			continue
		case math.IsInf(v, 0) || math.IsNaN(v):
			oc.fail("metric %s is %v", d.name, v)
			continue
		}
		result.Metrics[d.name] = value{v, d.unit}
	}
	result.Correct = oc.correct
	for _, p := range oc.problems {
		fmt.Fprintln(stderr, "benchmark:", o.workload+":", p)
	}
	data, err := json.Marshal(result)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(data))
	if !oc.correct || oc.failed > 0 {
		return 1
	}
	return 0
}

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// runAll runs every workload in a process of its own, one after another, so
// each peak_rss_mb belongs to that workload alone.
func runAll(o options, stdout, stderr io.Writer) int {
	if o.traceOut != "" {
		fmt.Fprintln(stderr, "benchmark: -trace-out names one file; with -workload all each workload writes its default trace")
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	code := 0
	for _, name := range workloadNames {
		fmt.Fprintf(stdout, "== %s\n", name)
		trace := "0"
		if o.trace {
			trace = "1"
		}
		cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatUint(o.seed, 10),
			"-seconds", formatValue(o.seconds), "-trace", trace)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
			code = 1
		}
	}
	return code
}
