// Command dlrminfer runs the full DLRM inference pipeline (dense MLPs +
// interaction around the EMB layer) on the simulated machine and reports
// end-to-end and EMB-segment times for both communication schemes — the
// "full inference pipeline" measurement context of the paper's §IV.
//
// Usage:
//
//	dlrminfer [-gpus 4] [-kind weak|strong] [-batches 20] [-dedup] [-seed 0]
//	          [-backend baseline,pgas-fused] [-pipeline 1] [-precision fp32]
//	          [-timeout 0]
//
// -dedup enables batch-level index deduplication on all backends (unique
// rows are shipped once per destination shard and expanded locally).
// -precision picks the wire transport format for embedding rows: fp32
// (uncompressed), fp16, or int8 (per-row absmax scale).
// -backend takes a comma-separated list of registered backend names.
// -pipeline sets the inter-batch software-pipelining depth (1 = serial,
// 2 = double-buffered EMB prefetch overlapping the next batch's exchange
// with the current batch's dense tail).
// A failing backend is reported and skipped, the others still run, and the
// command exits non-zero. -timeout bounds host wall-clock time.
package main

import (
	"flag"
	"fmt"
	"os"

	"pgasemb/internal/cliflag"
	"pgasemb/internal/dlrm"
	"pgasemb/internal/retrieval"
)

func main() {
	gpus := flag.Int("gpus", 4, "GPU count")
	kind := flag.String("kind", "weak", "workload: weak or strong scaling configuration")
	batches := flag.Int("batches", 20, "inference batches")
	dedup := flag.Bool("dedup", false, "enable batch-level index deduplication")
	backendNames := flag.String("backend", "baseline,pgas-fused", "comma-separated registered backend names to run")
	seed := flag.Uint64("seed", 0, "workload seed (0 = configuration default)")
	pipeline := flag.Int("pipeline", 1, "inter-batch pipeline depth (1 = serial, 2 = double buffering)")
	precision := flag.String("precision", "fp32", "wire transport format for embedding rows: fp32, fp16 or int8")
	timeout := flag.Duration("timeout", 0, "abort after this host wall-clock duration (0 = no limit)")
	flag.Parse()
	cliflag.RequireAtLeast(1, "gpus", "batches", "pipeline")
	ctx, cancel := cliflag.Context(*timeout)
	defer cancel()

	prec, err := retrieval.ParsePrecision(*precision)
	if err != nil {
		cliflag.Usage(err)
	}
	backends := cliflag.Backends("backend", *backendNames)

	var cfg retrieval.Config
	switch *kind {
	case "weak":
		cfg = retrieval.WeakScalingConfig(*gpus)
	case "strong":
		cfg = retrieval.StrongScalingConfig(*gpus)
	default:
		cliflag.Usage(fmt.Errorf("-kind must be weak or strong"))
	}
	cfg.Batches = *batches
	cfg.Dedup = *dedup
	cfg.PipelineDepth = *pipeline
	cfg.WirePrecision = prec
	if *seed != 0 {
		cfg.Seed = *seed
	}

	fmt.Printf("DLRM inference: %s scaling, %d GPUs, %d tables, batch %d, %d batches, pipeline depth %d, wire %s, seed %d\n\n",
		*kind, *gpus, cfg.TotalTables, cfg.BatchSize, cfg.Batches, cfg.PipelineDepth, prec, cfg.Seed)
	fmt.Printf("%-12s  %-14s  %-14s  %-10s\n", "backend", "total", "EMB segment", "EMB share")
	results := make(map[string]*dlrm.PipelineResult)
	failed := false
	for _, backend := range backends {
		pl, err := dlrm.NewPipeline(cfg, retrieval.DefaultHardware(), backend)
		if err == nil {
			var res *dlrm.PipelineResult
			res, err = pl.RunContext(ctx)
			if err == nil {
				results[backend.Name()] = res
				fmt.Printf("%-12s  %12.2fms  %12.2fms  %9.1f%%\n",
					backend.Name(), res.TotalTime*1e3, res.EMBTime*1e3, 100*res.EMBTime/res.TotalTime)
				continue
			}
		}
		// Keep going: the other backend's numbers are still worth printing,
		// but the run as a whole must fail.
		failed = true
		fmt.Fprintf(os.Stderr, "dlrminfer: %s: %v\n", backend.Name(), err)
	}
	base, pgas := results["baseline"], results["pgas-fused"]
	if base != nil && pgas != nil {
		fmt.Printf("\nPGAS fused over baseline: %.2fx end-to-end, %.2fx on the EMB segment\n",
			base.TotalTime/pgas.TotalTime, base.EMBTime/pgas.EMBTime)
	}
	if failed {
		os.Exit(1)
	}
}
