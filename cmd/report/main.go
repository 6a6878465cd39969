// Command report regenerates the committed evaluation in one run: every
// entry of the artifact manifest (internal/experiments/manifest.go) — the
// paper's Tables 1-2 and Figures 5-10, the scorecard, the mechanism
// ablations, the pipeline-depth table, the multi-seed statistics, and the
// precision, multi-node, placement, chaos and serving sweeps — with the
// options it was committed with. It writes each entry's files to a results
// directory as aligned text and CSV, plus a summary to stdout and a
// machine-readable bench.json timing record.
//
// Usage:
//
//	report [-out results] [-only scaling,stats] [-batches 0] [-seeds 0]
//	       [-backend pgas-fused] [-parallel N] [-timeout 0]
//
// -only runs the named entries alone (see results/README.md for which
// entry writes which file). -batches and -seeds replace the committed batch
// and seed counts of every entry that has one (0 = the committed values).
// -backend swaps the accelerated backend for any registered name (e.g.
// pgas-overlap-only); the baseline always runs beside it.
//
// The simulation runs of every selected entry execute on one pool of
// -parallel workers (default GOMAXPROCS); the tables and CSVs are
// byte-identical at any parallelism. -timeout bounds the whole run.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"pgasemb/internal/cliflag"
	"pgasemb/internal/experiments"
	"pgasemb/internal/retrieval"
)

func main() {
	out := flag.String("out", "results", "output directory")
	only := flag.String("only", "", "comma-separated manifest entries to run (empty = every entry)")
	batches := flag.Int("batches", 0, "batches per run of every batch-counted entry (0 = each entry's committed count)")
	seeds := flag.Int("seeds", 0, "workload seeds for the statistics tables (0 = the committed 3)")
	backend := flag.String("backend", "pgas-fused", "registered accelerated backend (the baseline always runs beside it)")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "concurrent simulation runs")
	timeout := flag.Duration("timeout", 0, "abort the whole report after this duration (0 = no limit)")
	flag.Parse()
	cliflag.RequireAtLeast(0, "batches", "seeds", "parallel")
	ctx, cancel := cliflag.Context(*timeout)
	defer cancel()

	var names []string
	if *only != "" {
		names = cliflag.Strings("only", *only)
	}
	entries, err := experiments.Manifest(names...)
	if err != nil {
		cliflag.Usage(err)
	}
	be, err := retrieval.NewBackendByName(*backend)
	if err != nil {
		cliflag.Usage(err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		cliflag.Fatal(err)
	}
	bench := experiments.NewBench()
	files, err := experiments.Run(ctx, entries, experiments.Overrides{
		Backends: []retrieval.Backend{be},
		Parallel: *parallel,
		Bench:    bench,
		Batches:  *batches,
		Seeds:    *seeds,
	})
	if err != nil {
		cliflag.Fatal(err)
	}

	for i, e := range entries {
		fmt.Printf("== %s ==\n", e.Name)
		for _, f := range files[i] {
			if f.Table != nil {
				err = cliflag.WriteTable(*out, f.Stem, f.Table)
				fmt.Println(f.Table.Render())
			} else {
				err = os.WriteFile(filepath.Join(*out, f.Stem+".txt"), []byte(f.Text), 0o644)
				fmt.Print(f.Text)
			}
			if err != nil {
				cliflag.Fatal(err)
			}
		}
	}

	benchPath := filepath.Join(*out, "bench.json")
	bf, err := os.Create(benchPath)
	if err != nil {
		cliflag.Fatal(err)
	}
	if err := bench.WriteJSON(bf); err != nil {
		cliflag.Fatal(err)
	}
	if err := bf.Close(); err != nil {
		cliflag.Fatal(err)
	}
	rep := bench.Report()
	fmt.Printf("host timing: %.1fs wall, %.1fs of simulation across %d workers (%s)\n",
		rep.TotalWallSeconds, rep.TotalRunSeconds, *parallel, benchPath)

	fmt.Printf("artifacts written to %s/\n", *out)
}
