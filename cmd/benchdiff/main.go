// Command benchdiff compares a fresh run of the packages' Go benchmarks with
// the hot-path rows of a committed bench.json, and fails when a tracked row
// regressed: ns/op beyond the tolerance, any allocs/op increase (the
// steady-state paths are pinned at zero), or a tracked row missing from the
// fresh run. With -write it instead stores the fresh rows as the hot_paths of
// a bench.json, keeping the file's sweep records.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./internal/... > bench.txt
//	benchdiff [-old results/bench.json] [-new bench.txt] [-tolerance 15]
//	benchdiff -new bench.txt -write results/bench.json
//
// -new is the standard output of go test -bench run with -benchmem. A row's
// name is the last element of its package path, a slash, and the benchmark's
// name without its Benchmark prefix and -GOMAXPROCS suffix: the sub-benchmark
// BenchmarkTouchAdmit/slots=4096-2 of pgasemb/internal/cache is the row
// cache/TouchAdmit/slots=4096. Under -count N a row's ns/op is the median of
// its N runs, its B/op and allocs/op the largest, and its iterations their
// sum. A FAIL line, or a row without the -benchmem columns, is an error.
//
// -tolerance is the allowed ns/op growth in percent. Allocation counts get
// no tolerance: any allocs/op increase fails. Rows that appear only in the
// fresh run are reported but never fail the diff, so adding a benchmark and
// regenerating the baseline in the same change works.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path"
	"regexp"
	"slices"
	"strconv"
	"strings"

	"pgasemb/internal/cliflag"
	"pgasemb/internal/experiments"
)

// row is one hot-path measurement: a benchmark's figures folded over its runs.
type row struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// benchFile is bench.json: cmd/report's sweep records and the hot-path rows.
type benchFile struct {
	experiments.BenchReport
	HotPaths []row `json:"hot_paths"`
}

func main() {
	oldPath := flag.String("old", "results/bench.json", "committed baseline bench.json")
	newPath := flag.String("new", ".bench-tmp/bench.txt", "fresh go test -bench -benchmem output")
	tolerance := flag.Float64("tolerance", 15, "allowed ns/op growth in percent")
	write := flag.String("write", "", "store the fresh rows as this bench.json's hot_paths instead of diffing")
	flag.Parse()
	if *tolerance < 0 {
		cliflag.Fatal(fmt.Errorf("-tolerance must be non-negative, got %g", *tolerance))
	}

	f, err := os.Open(*newPath)
	if err != nil {
		cliflag.Fatal(err)
	}
	fresh, err := parse(f)
	f.Close()
	if err != nil {
		cliflag.Fatal(fmt.Errorf("%s: %w", *newPath, err))
	}

	if *write != "" {
		rep, err := load(*write)
		if err != nil {
			cliflag.Fatal(err)
		}
		rep.HotPaths = fresh
		if err := store(*write, rep); err != nil {
			cliflag.Fatal(err)
		}
		fmt.Printf("benchdiff: wrote %d hot paths to %s\n", len(fresh), *write)
		return
	}

	old, err := load(*oldPath)
	if err != nil {
		cliflag.Fatal(err)
	}
	if len(old.HotPaths) == 0 {
		cliflag.Fatal(fmt.Errorf("%s records no hot paths (regenerate it with `make bench`)", *oldPath))
	}
	if n := diff(os.Stdout, old.HotPaths, fresh, *tolerance); n > 0 {
		fmt.Printf("\nbenchdiff: %d hot-path regression(s) vs %s\n", n, *oldPath)
		os.Exit(1)
	}
	fmt.Printf("\nbenchdiff: %d hot paths within %g%% of %s, no alloc regressions\n",
		len(old.HotPaths), *tolerance, *oldPath)
}

// gomaxprocs is the -N suffix go test appends to a benchmark's name when
// GOMAXPROCS is not 1.
var gomaxprocs = regexp.MustCompile(`-[0-9]+$`)

// parse reads go test -bench output and returns its rows in first-seen order,
// each folded over its runs. The error names every FAIL line and every row
// without -benchmem columns; the rows it does return are still the folded
// well-formed ones.
func parse(r io.Reader) ([]row, error) {
	var (
		pkg   string
		names []string
		runs  = map[string][]row{}
		errs  []error
	)
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "pkg: "):
			pkg = path.Base(strings.TrimPrefix(line, "pkg: "))
		case strings.HasPrefix(line, "FAIL") || strings.HasPrefix(line, "--- FAIL"):
			errs = append(errs, fmt.Errorf("line %d: %s", n, line))
		case strings.HasPrefix(line, "Benchmark"):
			run, err := parseRun(pkg, line)
			if err != nil {
				errs = append(errs, fmt.Errorf("line %d: %w", n, err))
				continue
			}
			if runs[run.Name] == nil {
				names = append(names, run.Name)
			}
			runs[run.Name] = append(runs[run.Name], run)
		}
	}
	if err := sc.Err(); err != nil {
		errs = append(errs, err)
	}
	if len(names) == 0 && len(errs) == 0 {
		errs = append(errs, errors.New("no benchmark results"))
	}
	rows := make([]row, len(names))
	for i, name := range names {
		rows[i] = fold(runs[name])
	}
	return rows, errors.Join(errs...)
}

// parseRun parses one benchmark result line of package pkg.
func parseRun(pkg, line string) (row, error) {
	f := strings.Fields(line)
	if len(f) < 2 || pkg == "" {
		return row{}, fmt.Errorf("not a benchmark result: %q", line)
	}
	r := row{Name: pkg + "/" + gomaxprocs.ReplaceAllString(strings.TrimPrefix(f[0], "Benchmark"), "")}
	var err error
	if r.Iterations, err = strconv.Atoi(f[1]); err != nil {
		return row{}, fmt.Errorf("%s: %w", r.Name, err)
	}
	v := map[string]float64{} // unit -> value
	for i := 2; i+1 < len(f); i += 2 {
		if v[f[i+1]], err = strconv.ParseFloat(f[i], 64); err != nil {
			return row{}, fmt.Errorf("%s: %w", r.Name, err)
		}
	}
	ns, okNs := v["ns/op"]
	b, okB := v["B/op"]
	a, okA := v["allocs/op"]
	if !okNs || !okB || !okA {
		return row{}, fmt.Errorf("%s: want ns/op, B/op and allocs/op columns (run go test with -benchmem)", r.Name)
	}
	r.NsPerOp, r.BytesPerOp, r.AllocsPerOp = ns, int64(b), int64(a)
	return r, nil
}

// fold merges a row's runs: the median ns/op, the largest B/op and
// allocs/op, and the summed iterations.
func fold(runs []row) row {
	out := row{Name: runs[0].Name}
	ns := make([]float64, len(runs))
	for i, r := range runs {
		ns[i] = r.NsPerOp
		out.Iterations += r.Iterations
		out.BytesPerOp = max(out.BytesPerOp, r.BytesPerOp)
		out.AllocsPerOp = max(out.AllocsPerOp, r.AllocsPerOp)
	}
	slices.Sort(ns)
	mid := len(ns) / 2
	out.NsPerOp = ns[mid]
	if len(ns)%2 == 0 {
		out.NsPerOp = (ns[mid-1] + ns[mid]) / 2
	}
	return out
}

// diff prints one line per baseline row and per new row to w, and returns
// the number of regressions: a baseline row missing from fresh, ns/op grown
// past tolerance percent, or any allocs/op growth.
func diff(w io.Writer, old, fresh []row, tolerance float64) int {
	now := make(map[string]row, len(fresh))
	for _, r := range fresh {
		now[r.Name] = r
	}
	seen := make(map[string]bool, len(old))

	fmt.Fprintf(w, "%-50s %12s %12s %8s  %s\n", "hot path", "old ns/op", "new ns/op", "delta", "allocs")
	regressions := 0
	for _, o := range old {
		seen[o.Name] = true
		n, ok := now[o.Name]
		if !ok {
			fmt.Fprintf(w, "%-50s %12.0f %12s %8s  FAIL: missing from the fresh run\n", o.Name, o.NsPerOp, "-", "-")
			regressions++
			continue
		}
		deltaPct := 0.0
		if o.NsPerOp > 0 {
			deltaPct = (n.NsPerOp - o.NsPerOp) / o.NsPerOp * 100
		}
		verdict := "ok"
		if deltaPct > tolerance {
			verdict = fmt.Sprintf("FAIL: ns/op grew %.1f%% (> %g%%)", deltaPct, tolerance)
			regressions++
		}
		if n.AllocsPerOp > o.AllocsPerOp {
			verdict = fmt.Sprintf("FAIL: allocs/op %d -> %d", o.AllocsPerOp, n.AllocsPerOp)
			regressions++
		}
		fmt.Fprintf(w, "%-50s %12.0f %12.0f %+7.1f%%  %d->%d  %s\n",
			o.Name, o.NsPerOp, n.NsPerOp, deltaPct, o.AllocsPerOp, n.AllocsPerOp, verdict)
	}
	for _, n := range fresh {
		if !seen[n.Name] {
			fmt.Fprintf(w, "%-50s %12s %12.0f %8s  new (not in baseline)\n", n.Name, "-", n.NsPerOp, "-")
		}
	}
	return regressions
}

func load(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &benchFile{}
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

func store(path string, rep *benchFile) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
