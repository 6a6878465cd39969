// Command report reproduces the paper's entire evaluation in one run and
// writes every artifact — Tables 1-2, Figures 5-10, the mechanism
// ablations, and the multi-seed statistics — to a results directory as
// aligned-text and CSV files, plus a summary to stdout and a
// machine-readable bench.json timing record.
//
// Usage:
//
//	report [-out results] [-batches 100] [-seeds 3] [-dedup]
//	       [-backend pgas-fused] [-parallel N] [-timeout 0]
//
// -dedup adds the batch-level index-deduplication axis to the scaling
// sweeps (each backend runs with dedup off and on; the tables grow the
// dedup columns). -backend swaps the accelerated column's backend for any
// registered name (e.g. hybrid); the baseline column always runs for
// comparison.
//
// Independent simulation runs within each experiment execute concurrently
// on -parallel workers (default GOMAXPROCS); the tables and CSVs are
// byte-identical at any parallelism. -timeout bounds the whole run.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"pgasemb"
	"pgasemb/internal/cliflag"
)

func main() {
	out := flag.String("out", "results", "output directory")
	batches := flag.Int("batches", 100, "batches per run (paper: 100)")
	seeds := flag.Int("seeds", 3, "workload seeds for the statistics tables (0 = skip)")
	dedup := flag.Bool("dedup", false, "add the index-deduplication axis to the scaling sweeps")
	backend := flag.String("backend", "pgas-fused", "registered backend for the accelerated column (baseline always runs for comparison)")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "concurrent simulation runs per experiment")
	timeout := flag.Duration("timeout", 0, "abort the whole report after this duration (0 = no limit)")
	flag.Parse()
	cliflag.RequireAtLeast(1, "batches")
	cliflag.RequireAtLeast(0, "seeds", "parallel")
	ctx, cancel := cliflag.Context(*timeout)
	defer cancel()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		cliflag.Fatal(err)
	}
	be, err := pgasemb.NewBackendByName(*backend)
	if err != nil {
		cliflag.Usage(err)
	}
	bench := pgasemb.NewBench()
	opts := pgasemb.ExperimentOptions{
		Sweep:   pgasemb.Sweep{Backends: []pgasemb.Backend{be}, Parallel: *parallel, Bench: bench},
		Batches: *batches,
		Dedup:   *dedup,
	}

	write := func(name string, t *pgasemb.RenderedTable) {
		if err := cliflag.WriteTable(*out, name, t); err != nil {
			cliflag.Fatal(err)
		}
		fmt.Println(t.Render())
	}
	writeChart := func(name, chart string) {
		if err := os.WriteFile(filepath.Join(*out, name+".txt"), []byte(chart), 0o644); err != nil {
			cliflag.Fatal(err)
		}
	}

	fmt.Println("== Weak scaling (Table 1, Figures 5-6) ==")
	weak, err := pgasemb.RunScaling(ctx, pgasemb.WeakScaling, opts)
	if err != nil {
		cliflag.Fatal(err)
	}
	write("table1_weak_speedups", weak.SpeedupTable())
	write("fig5_weak_factors", weak.FactorTable())
	write("fig6_weak_breakdown", weak.BreakdownTable())

	fmt.Println("== Strong scaling (Table 2, Figures 8-9) ==")
	strong, err := pgasemb.RunScaling(ctx, pgasemb.StrongScaling, opts)
	if err != nil {
		cliflag.Fatal(err)
	}
	write("table2_strong_speedups", strong.SpeedupTable())
	write("fig8_strong_factors", strong.FactorTable())
	write("fig9_strong_breakdown", strong.BreakdownTable())

	fmt.Println("== Reproduction scorecard ==")
	write("scorecard", pgasemb.Scorecard(weak, strong))

	fmt.Println("== Communication volume over time (Figures 7, 10) ==")
	traceBatches := 3
	if *batches < traceBatches {
		traceBatches = *batches
	}
	traceOpts := opts
	traceOpts.Batches = traceBatches
	fig7, err := pgasemb.RunCommVolume(ctx, pgasemb.WeakScaling, 2, 120, traceOpts)
	if err != nil {
		cliflag.Fatal(err)
	}
	write("fig7_comm_volume_2gpu", fig7.CSVTable())
	writeChart("fig7_comm_volume_2gpu_chart", fig7.CommVolumeCharts(10))
	fig10, err := pgasemb.RunCommVolume(ctx, pgasemb.StrongScaling, 4, 120, traceOpts)
	if err != nil {
		cliflag.Fatal(err)
	}
	write("fig10_comm_volume_4gpu", fig10.CSVTable())
	writeChart("fig10_comm_volume_4gpu_chart", fig10.CommVolumeCharts(10))

	fmt.Println("== Mechanism ablations ==")
	ab, err := pgasemb.RunAblations(ctx, 4, opts)
	if err != nil {
		cliflag.Fatal(err)
	}
	write("ablations", pgasemb.AblationTable(ab))

	fmt.Println("== Inter-batch pipelining ==")
	pd, err := pgasemb.RunPipelineDepth(ctx, 4, []int{1, 2}, opts)
	if err != nil {
		cliflag.Fatal(err)
	}
	write("pipeline_depth", pgasemb.PipelineDepthTable(pd))

	if *seeds > 0 {
		fmt.Println("== Multi-seed statistics ==")
		for _, kind := range []pgasemb.ScalingKind{pgasemb.WeakScaling, pgasemb.StrongScaling} {
			stats, err := pgasemb.RunScalingStats(ctx, kind, *seeds, opts)
			if err != nil {
				cliflag.Fatal(err)
			}
			write(fmt.Sprintf("stats_%s", kind), pgasemb.StatsTable(kind, stats))
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
		rep.TotalWallSeconds, rep.TotalRunSeconds, rep.Experiments[0].Parallel, benchPath)

	fmt.Printf("artifacts written to %s/\n", *out)
}
