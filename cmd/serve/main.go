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
	"flag"
	"fmt"
	"runtime"
	"time"

	"pgasemb/internal/cliflag"
	"pgasemb/internal/experiments"
	"pgasemb/internal/retrieval"
	"pgasemb/internal/serve"
)

func main() {
	rates := flag.String("rate", "4000,8000", "comma-separated arrival rates (requests/second)")
	cacheFracs := flag.String("cache", "0,0.01,0.05", "comma-separated hot-row cache sizes (fraction of device memory)")
	duration := flag.Duration("duration", 2*time.Second, "simulated arrival window per sweep point")
	gpus := flag.Int("gpus", 4, "GPUs in the serving machine")
	backend := flag.String("backend", "both", "backend to sweep: registered backend names, pgas (alias for pgas-fused), or both")
	arrival := flag.String("arrival", "poisson", "arrival process: poisson or bursty")
	dedup := flag.Bool("dedup", false, "add the batch-level index-deduplication axis (each point runs with dedup off and on)")
	seed := flag.Uint64("seed", 0, "arrival-process seed (0 = workload default)")
	pipeline := flag.Int("pipeline", 1, "inter-batch pipeline depth (1 = serial dispatch, 2 = overlapped dispatches)")
	precision := flag.String("precision", "fp32", "wire transport format for embedding rows: fp32, fp16 or int8")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "concurrent sweep points")
	out := flag.String("out", "results", "output directory")
	timeout := flag.Duration("timeout", 0, "abort after this host wall-clock duration (0 = no limit)")
	flag.Parse()
	cliflag.RequireAtLeast(1, "gpus", "pipeline")
	cliflag.RequireAtLeast(0, "parallel")
	ctx, cancel := cliflag.Context(*timeout)
	defer cancel()

	prec, err := retrieval.ParsePrecision(*precision)
	if err != nil {
		cliflag.Usage(err)
	}
	var arr serve.Arrival
	switch *arrival {
	case "poisson":
		arr = serve.Poisson
	case "bursty":
		arr = serve.Bursty
	default:
		cliflag.Usage(fmt.Errorf("unknown -arrival %q (want poisson or bursty)", *arrival))
	}

	opts := experiments.ServingOptions{
		Backends:       cliflag.Backends("backend", *backend),
		Rates:          cliflag.Floats("rate", *rates),
		CacheFractions: cliflag.Floats("cache", *cacheFracs),
		GPUs:           *gpus,
		Duration:       duration.Seconds(),
		Serve:          serve.Config{Arrival: arr, Seed: *seed},
		PipelineDepth:  *pipeline,
		WirePrecision:  prec,
	}
	if *dedup {
		opts.Dedups = []bool{false, true}
	}

	fmt.Printf("== Online serving sweep (%d GPUs, %s arrivals, %v simulated per point) ==\n",
		*gpus, arr, *duration)
	files, err := experiments.Run(ctx, []experiments.Entry{opts.Entry()}, experiments.Overrides{Parallel: *parallel})
	if err != nil {
		cliflag.Fatal(err)
	}
	t := files[0][0].Table
	if err := cliflag.WriteTable(*out, "serving", t); err != nil {
		cliflag.Fatal(err)
	}
	fmt.Println(t.Render())
	fmt.Printf("artifacts written to %s/\n", *out)
}
