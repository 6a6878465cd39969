// Command placement runs the adaptive-placement sweep: every (backend, Zipf
// exponent, policy) point is an offline retrieval run on a workload with
// graded per-table skew, comparing the static table-wise plan, the analytic
// greedy plan, statistics-driven adaptive rebalancing, and rebalancing plus
// selective hot-table mirroring. It writes the imbalance/speedup table to
// the results directory as aligned text and CSV, plus a summary to stdout.
//
// Usage:
//
//	placement [-policies static,greedy,adaptive,adaptive+mirror]
//	          [-zipf 1.05,1.2] [-gpus 4] [-batches 48] [-every 8] [-hot 2]
//	          [-backend both] [-parallel N] [-out results] [-timeout 0]
//
// -policies and -zipf take comma-separated sweeps. -every is the adaptive
// policies' rebalance epoch in batches, -hot the mirror budget of
// adaptive+mirror. Independent points execute concurrently on -parallel
// workers; the table is byte-identical at any parallelism. -timeout bounds
// host wall-clock time.
package main

import (
	"flag"
	"fmt"
	"runtime"
	"strings"

	"pgasemb"
	"pgasemb/internal/cliflag"
)

func main() {
	policies := flag.String("policies", strings.Join(pgasemb.PlacementPolicies(), ","),
		"comma-separated placement policies")
	zipf := flag.String("zipf", "1.05,1.2", "comma-separated Zipf exponents")
	gpus := flag.Int("gpus", 4, "GPUs in the machine")
	batches := flag.Int("batches", 48, "batches per sweep point")
	every := flag.Int("every", 8, "rebalance epoch length in batches")
	hot := flag.Int("hot", 2, "mirror budget of the adaptive+mirror policy")
	backend := flag.String("backend", "both", "backend to sweep: registered backend names, pgas (alias for pgas-fused), or both")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "concurrent sweep points")
	out := flag.String("out", "results", "output directory")
	timeout := flag.Duration("timeout", 0, "abort after this host wall-clock duration (0 = no limit)")
	flag.Parse()
	cliflag.RequireAtLeast(1, "gpus", "batches", "every", "hot")
	cliflag.RequireAtLeast(0, "parallel")
	ctx, cancel := cliflag.Context(*timeout)
	defer cancel()

	opts := pgasemb.PlacementOptions{
		Policies:       cliflag.Strings("policies", *policies),
		ZipfExponents:  cliflag.Floats("zipf", *zipf),
		Sweep:          pgasemb.Sweep{Backends: cliflag.Backends("backend", *backend), Parallel: *parallel},
		GPUs:           *gpus,
		Batches:        *batches,
		RebalanceEvery: *every,
		HotTables:      *hot,
	}

	fmt.Printf("== Placement sweep (%d GPUs, %d batches, rebalance every %d, %d mirrors) ==\n",
		*gpus, *batches, *every, *hot)
	res, err := pgasemb.RunPlacement(ctx, opts)
	if err != nil {
		cliflag.Fatal(err)
	}
	t := res.Table()
	if err := cliflag.WriteTable(*out, "placement", t); err != nil {
		cliflag.Fatal(err)
	}
	fmt.Println(t.Render())
	fmt.Printf("artifacts written to %s/\n", *out)
}
