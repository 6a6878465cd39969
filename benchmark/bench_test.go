package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// result is the JSON object a run prints last.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// smokeRun runs one workload at smoke scale and returns its exit code, its
// printed lines and its result object.
func smokeRun(t *testing.T, o options) (int, []string, result) {
	t.Helper()
	o.smoke = true
	if o.trace && o.traceOut == "" {
		o.traceOut = filepath.Join(t.TempDir(), "trace.json")
	}
	var stdout, stderr bytes.Buffer
	code := run(o, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%s: last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", o.workload, err, stdout.String(), stderr.String())
	}
	if code == 0 && stderr.Len() > 0 {
		t.Errorf("%s: exit 0 with diagnostics:\n%s", o.workload, stderr.String())
	}
	return code, lines[:len(lines)-1], r
}

// declaration is the benchmark's BENCHMARK.json.
type declaration struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadDeclaration(t *testing.T) declaration {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declaration
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return d
}

func TestDeclarationMatchesCode(t *testing.T) {
	d := loadDeclaration(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or repeated", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q is malformed", n, u)
		}
	}
	if len(d.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the command runs %d", len(d.Workloads), len(workloadNames))
	}
	for i, w := range d.Workloads {
		check(w.Name, "")
		if w.Name != workloadNames[i] || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q (why %q) does not match %q", i, w.Name, w.Why, workloadNames[i])
		}
	}
	if len(d.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, the command reports %d", len(d.EndToEnd), len(endToEnd))
	}
	var setupBound, maxBound float64
	for i, m := range d.EndToEnd {
		check(m.Name, m.Unit)
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d: declared %s %s, reported %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Better != "lower" && m.Better != "higher" || m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: better %q bound %g", m.Name, m.Better, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	if setupBound == 0 || setupBound != maxBound {
		t.Errorf("setup_s bound %g must be present and the largest (%g)", setupBound, maxBound)
	}
	if len(d.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the command reports %d", len(d.PerLayer), len(perLayer))
	}
	for i, m := range d.PerLayer {
		check(m.Name, m.Unit)
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: declared %s %s, reported %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
}

// Every workload, untraced and traced, exits 0 and reports exactly the
// declared metrics; a traced run's trace file yields the printed host
// metrics again.
func TestSmokeRunsReportDeclaredMetrics(t *testing.T) {
	d := loadDeclaration(t)
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			o := options{workload: w, seed: 2024, trace: trace}
			if trace {
				o.traceOut = filepath.Join(t.TempDir(), "trace.json")
			}
			code, lines, r := smokeRun(t, o)
			if code != 0 || !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Fatalf("%s trace=%v: exit %d, result %+v", w, trace, code, r)
			}
			var want []string
			if trace {
				for _, m := range d.PerLayer {
					want = append(want, m.Name)
				}
			} else {
				for _, m := range d.EndToEnd {
					want = append(want, m.Name)
				}
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(r.Metrics), len(want))
			}
			for _, name := range want {
				if _, ok := r.Metrics[name]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", w, trace, name)
				}
			}
			for _, l := range lines {
				if f := strings.Fields(l); len(f) != 3 {
					t.Errorf("%s: line %q is not \"name value unit\"", w, l)
				}
			}
			if !trace {
				continue
			}
			spans, err := readTrace(o.traceOut)
			if err != nil {
				t.Fatal(err)
			}
			roots := 0
			for _, sp := range spans {
				if sp.Parent == 0 {
					roots++
				}
			}
			if roots != 1 {
				t.Errorf("%s: trace has %d root spans, want 1", w, roots)
			}
			for name, v := range hostMetrics(spans) {
				if got := r.Metrics[name].Value; got != v {
					t.Errorf("%s: %s printed %g, trace file gives %g", w, name, got, v)
				}
			}
		}
	}
}

// simulated returns a workload's simulated metrics at smoke scale.
func simulated(t *testing.T, name string, seed uint64) simMetrics {
	t.Helper()
	w, err := newWorkload(name, seed, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.setup(nil); err != nil {
		t.Fatal(err)
	}
	out, err := w.pass(nil)
	if err != nil {
		t.Fatal(err)
	}
	return out.sim
}

func TestSimulatedMetricsRepeatForASeed(t *testing.T) {
	for _, w := range workloadNames {
		a, b := simulated(t, w, 2024), simulated(t, w, 2024)
		if !a.equal(b) {
			t.Errorf("%s: two runs with seed 2024 differ:\n%v\n%v", w, a, b)
		}
	}
}

func TestSeedChangesInputsNotMetricNames(t *testing.T) {
	for _, w := range workloadNames {
		a, b := simulated(t, w, 2024), simulated(t, w, 7)
		if a.equal(b) {
			t.Errorf("%s: seeds 2024 and 7 gave identical simulated metrics", w)
		}
		for name := range a {
			if _, ok := b[name]; !ok {
				t.Errorf("%s: metric %s reported for seed 2024 only", w, name)
			}
		}
		if len(a) != len(b) {
			t.Errorf("%s: %d metrics for seed 2024, %d for seed 7", w, len(a), len(b))
		}
	}
}

func TestLatencyPercentileCountsRefusedAsInf(t *testing.T) {
	done := make([]float64, 98)
	for i := range done {
		done[i] = float64(i + 1)
	}
	if got := latencyPercentile(done, 2, 50); got != 50 {
		t.Errorf("p50 = %g, want 50", got)
	}
	if got := latencyPercentile(done, 2, 98); got != 98 {
		t.Errorf("p98 = %g, want 98", got)
	}
	if got := latencyPercentile(done, 2, 99); !math.IsInf(got, 1) {
		t.Errorf("p99 with 2%% refused = %g, want +Inf", got)
	}
	if got := latencyPercentile(nil, 3, 50); !math.IsInf(got, 1) {
		t.Errorf("p50 with every request refused = %g, want +Inf", got)
	}
}

func TestCorruptedTwinFailsTheRun(t *testing.T) {
	for _, w := range workloadNames {
		code, _, r := smokeRun(t, options{workload: w, seed: 2024, corruptTwin: true})
		if code == 0 || r.Correct || r.Failed != r.Attempted {
			t.Errorf("%s: corrupted twin gave exit %d, correct %v, %d of %d failed", w, code, r.Correct, r.Failed, r.Attempted)
		}
	}
}

// readTrace loads the spans of a Chrome trace written by tracer.write.
func readTrace(path string) ([]span, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var file struct {
		TraceEvents []struct {
			Name string             `json:"name"`
			Ph   string             `json:"ph"`
			Ts   float64            `json:"ts"`
			Dur  float64            `json:"dur"`
			Args map[string]float64 `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("decoding trace %s: %w", path, err)
	}
	spans := make([]span, len(file.TraceEvents))
	for i, ev := range file.TraceEvents {
		if ev.Ph != "X" {
			return nil, fmt.Errorf("trace %s: event %d has phase %q, want X", path, i, ev.Ph)
		}
		args := map[string]float64{}
		for k, v := range ev.Args {
			if k != "id" && k != "parent" {
				args[k] = v
			}
		}
		spans[i] = span{ID: int(ev.Args["id"]), Parent: int(ev.Args["parent"]), Name: ev.Name,
			Start: ev.Ts, Dur: ev.Dur, Args: args}
	}
	return spans, nil
}
