// Command precision runs the mixed-precision wire-transport sweep: every
// (backend, dedup, precision) cell is a timing run on the same seed, so the
// table isolates what fp16 and per-row-scaled int8 wire formats buy on
// NVLink and NIC traffic and on EMB time, next to the measured worst-case
// output error each format introduces.
//
// Usage:
//
//	precision [-nodes 1] [-gpus-per-node 4] [-batches 20]
//	          [-backends baseline,pgas-fused,hybrid] [-csv]
//	          [-out ""] [-timeout 0]
//
// With -out set, the rendered table and its CSV are also written to
// <out>/precision.txt and <out>/precision.csv.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"pgasemb"
	"pgasemb/internal/cliflag"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "precision:", err)
	os.Exit(1)
}

func main() {
	nodes := flag.Int("nodes", 1, "NVLink node count (>1 adds NIC-joined cluster fabric)")
	gpusPerNode := flag.Int("gpus-per-node", 4, "GPUs per node")
	batches := flag.Int("batches", 0, "inference batches per run (0 = configuration default)")
	batchSize := flag.Int("batchsize", 0, "global batch size (0 = configuration default)")
	backends := flag.String("backends", "", "comma-separated registered backends (default baseline,pgas-fused,hybrid)")
	parallel := flag.Int("parallel", 0, "concurrent simulation runs (0 = GOMAXPROCS); results are identical for every value")
	csv := flag.Bool("csv", false, "emit CSV instead of an aligned table")
	out := flag.String("out", "", "directory to also write precision.txt and precision.csv into (empty = stdout only)")
	timeout := flag.Duration("timeout", 0, "abort after this host wall-clock duration (0 = no limit)")
	flag.Parse()
	cliflag.RequirePositive("nodes", "gpus-per-node")

	var names []string
	if *backends != "" {
		for _, n := range strings.Split(*backends, ",") {
			n = strings.TrimSpace(n)
			if n == "" {
				continue
			}
			if _, err := pgasemb.NewBackendByName(n); err != nil {
				fmt.Fprintln(os.Stderr, "precision:", err)
				os.Exit(2)
			}
			names = append(names, n)
		}
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	res, err := pgasemb.RunPrecisionContext(ctx, pgasemb.PrecisionOptions{
		Nodes:       *nodes,
		GPUsPerNode: *gpusPerNode,
		Batches:     *batches,
		BatchSize:   *batchSize,
		Backends:    names,
		Parallel:    *parallel,
	})
	if err != nil {
		fatal(err)
	}
	t := res.SweepTable()
	if *csv {
		fmt.Print(t.CSV())
	} else {
		fmt.Println(t.Render())
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatal(err)
		}
		if err := os.WriteFile(filepath.Join(*out, "precision.txt"), []byte(t.Render()), 0o644); err != nil {
			fatal(err)
		}
		if err := os.WriteFile(filepath.Join(*out, "precision.csv"), []byte(t.CSV()), 0o644); err != nil {
			fatal(err)
		}
	}
}
