// Command multinode runs the multi-node scaling evaluation (the paper's §V
// future-work setting): N NVLink nodes joined by NICs, the baseline over
// hierarchical collectives, PGAS over the proxy-coalesced inter-node
// one-sided path. It prints weak- and strong-scaling tables with NIC-traffic
// columns.
//
// Usage:
//
//	multinode [-nodes 4] [-gpus-per-node 4] [-batches 20]
//	          [-backend pgas-fused] [-precision fp32] [-csv] [-timeout 0]
//
// -backend swaps the accelerated column's backend for any registered name
// (e.g. pgas-overlap-only); the baseline column always runs for comparison.
package main

import (
	"flag"
	"fmt"

	"pgasemb"
	"pgasemb/internal/cliflag"
)

func main() {
	nodes := flag.Int("nodes", 4, "largest node count in the sweep")
	gpusPerNode := flag.Int("gpus-per-node", 4, "GPUs per node")
	batches := flag.Int("batches", 0, "inference batches per run (0 = configuration default)")
	batchSize := flag.Int("batchsize", 0, "global batch size (0 = configuration default)")
	parallel := flag.Int("parallel", 0, "concurrent simulation runs (0 = GOMAXPROCS); results are identical for every value")
	backend := flag.String("backend", "pgas-fused", "registered backend for the accelerated column (baseline always runs for comparison)")
	precision := flag.String("precision", "fp32", "wire transport format for embedding rows: fp32, fp16 or int8 (both columns)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	timeout := flag.Duration("timeout", 0, "abort after this host wall-clock duration (0 = no limit)")
	flag.Parse()
	cliflag.RequireAtLeast(1, "nodes", "gpus-per-node")
	cliflag.RequireAtLeast(0, "batches", "batchsize", "parallel")
	ctx, cancel := cliflag.Context(*timeout)
	defer cancel()

	be, err := pgasemb.NewBackendByName(*backend)
	if err != nil {
		cliflag.Usage(err)
	}
	prec, err := pgasemb.ParsePrecision(*precision)
	if err != nil {
		cliflag.Usage(err)
	}
	opts := pgasemb.MultiNodeOptions{
		Sweep:         pgasemb.Sweep{Backends: []pgasemb.Backend{be}, Parallel: *parallel},
		MaxNodes:      *nodes,
		GPUsPerNode:   *gpusPerNode,
		Batches:       *batches,
		BatchSize:     *batchSize,
		WirePrecision: prec,
	}
	for _, kind := range []pgasemb.ScalingKind{pgasemb.WeakScaling, pgasemb.StrongScaling} {
		res, err := pgasemb.RunMultiNode(ctx, kind, opts)
		if err != nil {
			cliflag.Fatal(err)
		}
		for _, t := range []*pgasemb.RenderedTable{res.ScalingTable(), res.CommTable()} {
			if *csv {
				fmt.Print(t.CSV())
			} else {
				fmt.Println(t.Render())
			}
		}
	}
}
