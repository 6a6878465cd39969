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
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
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
	backend := flag.String("backend", "both", "backend to sweep: a registered backend name, pgas (alias for pgas-fused), or both")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "concurrent sweep points")
	out := flag.String("out", "results", "output directory")
	timeout := flag.Duration("timeout", 0, "abort after this host wall-clock duration (0 = no limit)")
	flag.Parse()
	cliflag.RequirePositive("gpus", "batches", "every", "hot")
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
	case "pgas": // alias, matching cmd/serve
		backends = []pgasemb.Backend{pgasemb.NewPGASFused()}
	default:
		be, err := pgasemb.NewBackendByName(*backend)
		if err != nil {
			fatal(fmt.Errorf("%w; also accepted: both, pgas", err))
		}
		backends = []pgasemb.Backend{be}
	}

	opts := pgasemb.PlacementOptions{
		Policies:       parseStrings(*policies, "-policies"),
		ZipfExponents:  parseFloats(*zipf, "-zipf"),
		Backends:       backends,
		GPUs:           *gpus,
		Batches:        *batches,
		RebalanceEvery: *every,
		HotTables:      *hot,
		Parallel:       *parallel,
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	fmt.Printf("== Placement sweep (%d GPUs, %d batches, rebalance every %d, %d mirrors) ==\n",
		*gpus, *batches, *every, *hot)
	res, err := pgasemb.RunPlacementContext(ctx, opts)
	if err != nil {
		fatal(err)
	}
	t := res.Table()
	if err := os.WriteFile(filepath.Join(*out, "placement.txt"), []byte(t.Render()), 0o644); err != nil {
		fatal(err)
	}
	if err := os.WriteFile(filepath.Join(*out, "placement.csv"), []byte(t.CSV()), 0o644); err != nil {
		fatal(err)
	}
	fmt.Println(t.Render())
	fmt.Printf("artifacts written to %s/\n", *out)
}

func parseStrings(s, flagName string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	if len(out) == 0 {
		fatal(fmt.Errorf("%s: empty sweep", flagName))
	}
	return out
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
	fmt.Fprintln(os.Stderr, "placement:", err)
	os.Exit(1)
}
