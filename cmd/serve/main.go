// Command serve runs the online inference serving sweep: open-loop request
// arrivals feed a dynamic batcher that dispatches device batches through
// the DLRM pipeline on both retrieval backends, with a per-GPU hot-row
// embedding cache whose size is swept alongside the arrival rate. It writes
// the tail-latency/goodput table to the results directory as aligned text
// and CSV, plus a summary to stdout.
//
// Usage:
//
//	serve [-rate 4000,8000] [-cache 0,0.01,0.05] [-duration 2s] [-gpus 4]
//	      [-backend both] [-arrival poisson] [-dedup] [-seed 0] [-pipeline 1]
//	      [-precision fp32] [-parallel N] [-out results] [-timeout 0]
//
// -rate and -cache take comma-separated sweeps; -duration is SIMULATED
// time (the arrival window of each point). -dedup adds the batch-level
// index-deduplication axis: every point runs with dedup off and on, and the
// table grows the dedup/uniq_frac/wire_saved_mb columns. Independent points
// execute concurrently on -parallel workers; the table is byte-identical at
// any parallelism. -timeout bounds host wall-clock time.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"pgasemb"
	"pgasemb/internal/cliflag"
)

func main() {
	rates := flag.String("rate", "4000,8000", "comma-separated arrival rates (requests/second)")
	cacheFracs := flag.String("cache", "0,0.01,0.05", "comma-separated hot-row cache sizes (fraction of device memory)")
	duration := flag.Duration("duration", 2*time.Second, "simulated arrival window per sweep point")
	gpus := flag.Int("gpus", 4, "GPUs in the serving machine")
	backend := flag.String("backend", "both", "backend to sweep: a registered backend name (see -backend help), pgas (alias for pgas-fused), or both")
	arrival := flag.String("arrival", "poisson", "arrival process: poisson or bursty")
	dedup := flag.Bool("dedup", false, "add the batch-level index-deduplication axis (each point runs with dedup off and on)")
	seed := flag.Uint64("seed", 0, "arrival-process seed (0 = workload default)")
	pipeline := flag.Int("pipeline", 1, "inter-batch pipeline depth (1 = serial dispatch, 2 = overlapped dispatches)")
	precision := flag.String("precision", "fp32", "wire transport format for embedding rows: fp32, fp16 or int8")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "concurrent sweep points")
	out := flag.String("out", "results", "output directory")
	timeout := flag.Duration("timeout", 0, "abort after this host wall-clock duration (0 = no limit)")
	flag.Parse()
	cliflag.RequirePositive("gpus", "pipeline")
	if *parallel <= 0 {
		*parallel = runtime.GOMAXPROCS(0)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var backends []pgasemb.Backend
	switch *backend {
	case "both":
		backends = []pgasemb.Backend{pgasemb.NewBaseline(), pgasemb.NewPGASFused()}
	case "pgas": // legacy alias
		backends = []pgasemb.Backend{pgasemb.NewPGASFused()}
	default:
		be, err := pgasemb.NewBackendByName(*backend)
		if err != nil {
			fatal(fmt.Errorf("%w; also accepted: both, pgas", err))
		}
		backends = []pgasemb.Backend{be}
	}
	prec, err := pgasemb.ParsePrecision(*precision)
	if err != nil {
		fatal(err)
	}
	var arr pgasemb.Arrival
	switch *arrival {
	case "poisson":
		arr = pgasemb.PoissonArrivals
	case "bursty":
		arr = pgasemb.BurstyArrivals
	default:
		fatal(fmt.Errorf("unknown -arrival %q (want poisson or bursty)", *arrival))
	}

	opts := pgasemb.ServingOptions{
		Rates:          parseFloats(*rates, "-rate"),
		CacheFractions: parseFloats(*cacheFracs, "-cache"),
		Backends:       backends,
		GPUs:           *gpus,
		Duration:       duration.Seconds(),
		Serve:          pgasemb.ServeConfig{Arrival: arr, Seed: *seed},
		PipelineDepth:  *pipeline,
		WirePrecision:  prec,
		Parallel:       *parallel,
	}
	if *dedup {
		opts.Dedups = []bool{false, true}
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	fmt.Printf("== Online serving sweep (%d GPUs, %s arrivals, %v simulated per point) ==\n",
		*gpus, arr, *duration)
	res, err := pgasemb.RunServingContext(ctx, opts)
	if err != nil {
		fatal(err)
	}
	t := res.Table()
	if err := os.WriteFile(filepath.Join(*out, "serving.txt"), []byte(t.Render()), 0o644); err != nil {
		fatal(err)
	}
	if err := os.WriteFile(filepath.Join(*out, "serving.csv"), []byte(t.CSV()), 0o644); err != nil {
		fatal(err)
	}
	fmt.Println(t.Render())
	fmt.Printf("artifacts written to %s/\n", *out)
}

func parseFloats(s, flagName string) []float64 {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", flagName, err))
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		fatal(fmt.Errorf("%s: empty sweep", flagName))
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "serve:", err)
	os.Exit(1)
}
