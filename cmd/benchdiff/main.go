// Command benchdiff compares two bench.json hot-path records — typically a
// freshly measured one against the committed results/bench.json — and fails
// when a tracked hot path regressed: ns/op beyond the tolerance, any
// allocs/op increase (the steady-state paths are pinned at zero), or a
// tracked path missing from the fresh record.
//
// Usage:
//
//	benchdiff [-old results/bench.json] [-new .bench-tmp/bench.json]
//	          [-tolerance 15]
//
// -tolerance is the allowed ns/op growth in percent. Allocation counts get
// no tolerance: any allocs/op increase fails. Hot paths that appear only in
// the new record are reported but never fail the diff, so adding a tracked
// path and regenerating the baseline in the same change works.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"pgasemb"
	"pgasemb/internal/cliflag"
)

func main() {
	oldPath := flag.String("old", "results/bench.json", "committed baseline bench.json")
	newPath := flag.String("new", ".bench-tmp/bench.json", "freshly measured bench.json")
	tolerance := flag.Float64("tolerance", 15, "allowed ns/op growth in percent")
	flag.Parse()
	if *tolerance < 0 {
		cliflag.Fatal(fmt.Errorf("-tolerance must be non-negative, got %g", *tolerance))
	}

	oldRep, err := load(*oldPath)
	if err != nil {
		cliflag.Fatal(err)
	}
	newRep, err := load(*newPath)
	if err != nil {
		cliflag.Fatal(err)
	}
	if len(oldRep.HotPaths) == 0 {
		cliflag.Fatal(fmt.Errorf("%s records no hot paths (regenerate it with `make bench`)", *oldPath))
	}

	fresh := make(map[string]pgasemb.HotPathBenchmark, len(newRep.HotPaths))
	for _, h := range newRep.HotPaths {
		fresh[h.Name] = h
	}
	seen := make(map[string]bool, len(oldRep.HotPaths))

	fmt.Printf("%-42s %12s %12s %8s  %s\n", "hot path", "old ns/op", "new ns/op", "delta", "allocs")
	regressions := 0
	for _, old := range oldRep.HotPaths {
		seen[old.Name] = true
		now, ok := fresh[old.Name]
		if !ok {
			fmt.Printf("%-42s %12.0f %12s %8s  FAIL: missing from %s\n",
				old.Name, old.NsPerOp, "-", "-", *newPath)
			regressions++
			continue
		}
		deltaPct := 0.0
		if old.NsPerOp > 0 {
			deltaPct = (now.NsPerOp - old.NsPerOp) / old.NsPerOp * 100
		}
		verdict := "ok"
		if deltaPct > *tolerance {
			verdict = fmt.Sprintf("FAIL: ns/op grew %.1f%% (> %g%%)", deltaPct, *tolerance)
			regressions++
		}
		if now.AllocsPerOp > old.AllocsPerOp {
			verdict = fmt.Sprintf("FAIL: allocs/op %d -> %d", old.AllocsPerOp, now.AllocsPerOp)
			regressions++
		}
		fmt.Printf("%-42s %12.0f %12.0f %+7.1f%%  %d->%d  %s\n",
			old.Name, old.NsPerOp, now.NsPerOp, deltaPct, old.AllocsPerOp, now.AllocsPerOp, verdict)
	}
	for _, h := range newRep.HotPaths {
		if !seen[h.Name] {
			fmt.Printf("%-42s %12s %12.0f %8s  new (not in baseline)\n", h.Name, "-", h.NsPerOp, "-")
		}
	}

	if regressions > 0 {
		fmt.Printf("\nbenchdiff: %d hot-path regression(s) vs %s\n", regressions, *oldPath)
		os.Exit(1)
	}
	fmt.Printf("\nbenchdiff: %d hot paths within %g%% of %s, no alloc regressions\n",
		len(oldRep.HotPaths), *tolerance, *oldPath)
}

func load(path string) (*pgasemb.BenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &pgasemb.BenchReport{}
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}
