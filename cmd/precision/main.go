// Command precision runs the mixed-precision wire-transport sweep: every
// (backend, dedup, precision) cell is a timing run on the same seed, so the
// table isolates what fp16 and per-row-scaled int8 wire formats buy on
// NVLink and NIC traffic and on EMB time, next to the measured worst-case
// output error each format introduces.
//
// Usage:
//
//	precision [-nodes 1] [-gpus-per-node 4] [-batches 20]
//	          [-backends baseline,pgas-fused] [-csv]
//	          [-out ""] [-timeout 0]
//
// With -out set, the rendered table and its CSV are also written to
// <out>/precision.txt and <out>/precision.csv.
package main

import (
	"flag"
	"fmt"

	"pgasemb"
	"pgasemb/internal/cliflag"
)

func main() {
	nodes := flag.Int("nodes", 1, "NVLink node count (>1 adds NIC-joined cluster fabric)")
	gpusPerNode := flag.Int("gpus-per-node", 4, "GPUs per node")
	batches := flag.Int("batches", 0, "inference batches per run (0 = configuration default)")
	batchSize := flag.Int("batchsize", 0, "global batch size (0 = configuration default)")
	backends := flag.String("backends", "", "comma-separated registered backends (default baseline,pgas-fused)")
	parallel := flag.Int("parallel", 0, "concurrent simulation runs (0 = GOMAXPROCS); results are identical for every value")
	csv := flag.Bool("csv", false, "emit CSV instead of an aligned table")
	out := flag.String("out", "", "directory to also write precision.txt and precision.csv into (empty = stdout only)")
	timeout := flag.Duration("timeout", 0, "abort after this host wall-clock duration (0 = no limit)")
	flag.Parse()
	cliflag.RequireAtLeast(1, "nodes", "gpus-per-node")
	cliflag.RequireAtLeast(0, "batches", "batchsize", "parallel")
	ctx, cancel := cliflag.Context(*timeout)
	defer cancel()

	sweep := pgasemb.Sweep{Parallel: *parallel}
	if *backends != "" {
		sweep.Backends = cliflag.Backends("backends", *backends)
	}
	res, err := pgasemb.RunPrecision(ctx, pgasemb.PrecisionOptions{
		Sweep:       sweep,
		Nodes:       *nodes,
		GPUsPerNode: *gpusPerNode,
		Batches:     *batches,
		BatchSize:   *batchSize,
	})
	if err != nil {
		cliflag.Fatal(err)
	}
	t := res.SweepTable()
	if *csv {
		fmt.Print(t.CSV())
	} else {
		fmt.Println(t.Render())
	}
	if *out != "" {
		if err := cliflag.WriteTable(*out, "precision", t); err != nil {
			cliflag.Fatal(err)
		}
	}
}
