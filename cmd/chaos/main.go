// Command chaos runs the fault-injection resilience sweep: every (backend,
// fault profile, replica count) point is a full online-serving simulation
// under that deterministic fault schedule — degraded links or NICs, GPU
// stragglers, proxy delivery drops — with the serving layer's degradation
// policy (queue-timeout rejection, health-aware shedding, stale-cache
// serving) active. It writes the availability/tail-latency table to the
// results directory as aligned text and CSV, plus a summary to stdout.
//
// Usage:
//
//	chaos [-profiles none,flaky-link,straggler] [-replicas 1,2] [-gpus 4]
//	      [-nodes 0] [-rate 4000] [-duration 1s] [-backend both]
//	      [-parallel N] [-out results] [-timeout 0]
//
// -profiles and -replicas take comma-separated sweeps; -duration is
// SIMULATED time (the arrival window of each point). NIC and proxy-drop
// profiles (degraded-nic, lossy-proxy, mixed) need -nodes > 0 to have any
// effect. Independent points execute concurrently on -parallel workers; the
// table is byte-identical at any parallelism. -timeout bounds host
// wall-clock time.
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
	profiles := flag.String("profiles", "none,flaky-link,straggler",
		fmt.Sprintf("comma-separated fault profiles (known: %s)", strings.Join(pgasemb.FaultProfiles(), ", ")))
	replicas := flag.String("replicas", "1,2", "comma-separated shard replication factors")
	gpus := flag.Int("gpus", 4, "GPUs in the machine")
	nodes := flag.Int("nodes", 0, "NVLink islands joined by the NIC fabric (0 = single node)")
	rate := flag.Float64("rate", 4000, "arrival rate (requests/second)")
	duration := flag.Duration("duration", time.Second, "simulated arrival window per sweep point")
	backend := flag.String("backend", "both", "backend to sweep: a registered backend name, pgas (alias for pgas-fused), or both")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "concurrent sweep points")
	out := flag.String("out", "results", "output directory")
	timeout := flag.Duration("timeout", 0, "abort after this host wall-clock duration (0 = no limit)")
	flag.Parse()
	cliflag.RequirePositive("gpus")
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

	opts := pgasemb.ChaosOptions{
		Profiles: parseStrings(*profiles, "-profiles"),
		Replicas: parseInts(*replicas, "-replicas"),
		Backends: backends,
		GPUs:     *gpus,
		Nodes:    *nodes,
		Rate:     *rate,
		Duration: duration.Seconds(),
		Parallel: *parallel,
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	fmt.Printf("== Chaos sweep (%d GPUs, %d nodes, %.0f req/s, %v simulated per point) ==\n",
		*gpus, *nodes, *rate, *duration)
	res, err := pgasemb.RunChaosContext(ctx, opts)
	if err != nil {
		fatal(err)
	}
	t := res.Table()
	if err := os.WriteFile(filepath.Join(*out, "chaos.txt"), []byte(t.Render()), 0o644); err != nil {
		fatal(err)
	}
	if err := os.WriteFile(filepath.Join(*out, "chaos.csv"), []byte(t.CSV()), 0o644); err != nil {
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

func parseInts(s, flagName string) []int {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.Atoi(f)
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
	fmt.Fprintln(os.Stderr, "chaos:", err)
	os.Exit(1)
}
