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
//	      [-nodes 1] [-rate 4000] [-duration 1s] [-backend both]
//	      [-parallel N] [-out results] [-timeout 0]
//
// -profiles and -replicas take comma-separated sweeps; -duration is
// SIMULATED time (the arrival window of each point). NIC and proxy-drop
// profiles (degraded-nic, lossy-proxy, mixed) need -nodes > 1 to have any
// effect. Independent points execute concurrently on -parallel workers; the
// table is byte-identical at any parallelism. -timeout bounds host
// wall-clock time.
package main

import (
	"flag"
	"fmt"
	"runtime"
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
	nodes := flag.Int("nodes", 1, "NVLink node count (>1 adds NIC-joined cluster fabric)")
	rate := flag.Float64("rate", 4000, "arrival rate (requests/second)")
	duration := flag.Duration("duration", time.Second, "simulated arrival window per sweep point")
	backend := flag.String("backend", "both", "backend to sweep: registered backend names, pgas (alias for pgas-fused), or both")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "concurrent sweep points")
	out := flag.String("out", "results", "output directory")
	timeout := flag.Duration("timeout", 0, "abort after this host wall-clock duration (0 = no limit)")
	flag.Parse()
	cliflag.RequireAtLeast(1, "gpus", "nodes")
	cliflag.RequireAtLeast(0, "parallel")
	ctx, cancel := cliflag.Context(*timeout)
	defer cancel()

	opts := pgasemb.ChaosOptions{
		Profiles: cliflag.Strings("profiles", *profiles),
		Replicas: cliflag.Ints("replicas", *replicas),
		Sweep:    pgasemb.Sweep{Backends: cliflag.Backends("backend", *backend), Parallel: *parallel},
		GPUs:     *gpus,
		Nodes:    *nodes,
		Rate:     *rate,
		Duration: duration.Seconds(),
	}

	fmt.Printf("== Chaos sweep (%d GPUs, %d nodes, %.0f req/s, %v simulated per point) ==\n",
		*gpus, *nodes, *rate, *duration)
	res, err := pgasemb.RunChaos(ctx, opts)
	if err != nil {
		cliflag.Fatal(err)
	}
	t := res.Table()
	if err := cliflag.WriteTable(*out, "chaos", t); err != nil {
		cliflag.Fatal(err)
	}
	fmt.Println(t.Render())
	fmt.Printf("artifacts written to %s/\n", *out)
}
