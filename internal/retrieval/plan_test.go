package retrieval

import (
	"fmt"
	"slices"
	"testing"

	"pgasemb/internal/fault"
)

// planRecords prints every record of a compiled plan: each pair's and
// node's counts, first-seen spread, functional keys and expansion maps,
// decisions and pricing state, the residency hits when the batch ran the
// residency step, the serve column and the pooled-index prefixes. fmt prints
// a nil and an empty slice alike, so storage a record keeps between batches
// cannot tell.
func planRecords(p *RoutePlan) string {
	out := fmt.Sprintf("pairs %v\nnodes %v\nserve %v\npooled %v\n", p.pairs, p.nodes, p.serve, p.pooled)
	if p.resident {
		out += fmt.Sprintf("hits %v %v %v\n", p.hitVecs, p.hitIdx, p.hit)
	}
	return out
}

// TestPlanCarriesNothingAcrossBatches holds the run's one route plan to a
// fresh compile: after every batch i, the plan a long-lived System holds
// equals the plan a fresh System of the same spec compiles for batch i
// alone, record for record, so no per-batch reset is missing. The fresh
// System skips batches 0..i-1 by drawing them whole, which moves its
// generator as the long-lived walk does. The configurations hold no state
// that legitimately spans batches (a cache, a placement controller): dedup
// in a timing run, a functional two-node run whose records carry key lists,
// expansion maps and node-level routes, and replicated shards under a flaky
// link, whose serve column follows the fault schedule batch by batch.
func TestPlanCarriesNothingAcrossBatches(t *testing.T) {
	flaky, err := fault.Profile("flaky-link", 99)
	if err != nil {
		t.Fatal(err)
	}
	timingDedup := dedupTestConfig(4)
	timingDedup.Functional = false
	replicas := clusterTestConfig(4)
	replicas.Replicas = 2
	replicas.Batches = 10
	faulty := DefaultHardware()
	faulty.Faults = flaky
	cases := []struct {
		name string
		cfg  Config
		hw   HardwareParams
	}{
		{"dedup", timingDedup, DefaultHardware()},
		{"cluster-dedup-functional", dedupTestConfig(4), ClusterHardware(2)},
		{"replicas-flaky-link", replicas, faulty},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec, err := NewSystemSpec(c.cfg, c.hw)
			if err != nil {
				t.Fatal(err)
			}
			long, err := spec.NewRun()
			if err != nil {
				t.Fatal(err)
			}
			var wires, nodeWires, keys int
			var serves []string
			for i := 0; i < c.cfg.Batches; i++ {
				bd, err := long.NextBatchData()
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := spec.NewRun()
				if err != nil {
					t.Fatal(err)
				}
				for j := 0; j < i; j++ {
					fresh.gen.NextBatch()
					fresh.batchSeq++
				}
				fbd, err := fresh.NextBatchData()
				if err != nil {
					t.Fatal(err)
				}
				if got, want := planRecords(bd.Plan), planRecords(fbd.Plan); got != want {
					t.Fatalf("batch %d: the long-lived plan differs from a fresh compile:\n%s\nfresh:\n%s", i, got, want)
				}
				p := bd.Plan
				for k := range p.pairs {
					if p.pairs[k].wire {
						wires++
					}
					keys += len(p.pairs[k].keys)
				}
				for k := range p.nodes {
					if p.nodes[k].wire {
						nodeWires++
					}
				}
				serves = append(serves, fmt.Sprint(p.serve))
			}
			switch c.name {
			case "dedup":
				if wires == 0 {
					t.Fatal("no wire pair: the decisions' reset goes unchecked")
				}
			case "cluster-dedup-functional":
				if nodeWires == 0 || keys == 0 {
					t.Fatalf("node-wire routes %d, keys %d: the node records and key lists go unchecked", nodeWires, keys)
				}
			default:
				if len(slices.Compact(serves)) < 2 {
					t.Fatalf("the serve column never changes (%v): its rewrite goes unchecked", serves[0])
				}
			}
		})
	}
}
