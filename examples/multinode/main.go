// Multinode: the paper's future-work scenario (§V) — scale the PGAS scheme
// past one chassis. Two NVLink nodes are joined by NICs; the baseline's
// all-to-all goes hierarchical, and PGAS one-sided stores to the other node
// leave through a per-GPU proxy that coalesces them into NIC messages.
// The default proxy already coalesces well enough that aggregation cuts
// the NIC message count but buys no time. Shrink the proxy's staging buffer
// to one embedding vector and every remote store becomes its own NIC
// message; routing the stores through the asynchronous aggregator
// ("aggregator.store(...) instead of sum.store(...)", as the paper puts it)
// recovers the loss with no other change.
//
//	go run ./examples/multinode
package main

import (
	"fmt"
	"log"

	"pgasemb/internal/retrieval"
)

func main() {
	cfg := retrieval.WeakScalingConfig(4)
	cfg.Batches = 5

	cluster := retrieval.ClusterHardware(2)
	oneVector := retrieval.ClusterHardware(2)
	oneVector.Proxy.StagingBytes = cfg.VectorBytes()
	aggregated := &retrieval.PGASFused{Aggregate: &retrieval.AggregatorConfig{FlushBytes: 64 << 10, MaxWait: 100e-6}}

	fmt.Println("4 GPUs as 2 nodes x 2 GPUs: NVLink inside a node, NICs across")
	fmt.Println()

	scenarios := []struct {
		name    string
		hw      retrieval.HardwareParams
		backend retrieval.Backend
	}{
		{"default proxy, baseline collective", cluster, &retrieval.Baseline{}},
		{"default proxy, direct PGAS", cluster, &retrieval.PGASFused{}},
		{"default proxy, aggregated PGAS", cluster, aggregated},
		{"one-vector proxy, direct PGAS", oneVector, &retrieval.PGASFused{}},
		{"one-vector proxy, aggregated PGAS", oneVector, aggregated},
	}
	for _, sc := range scenarios {
		sys, err := retrieval.NewSystem(cfg, sc.hw)
		if err != nil {
			log.Fatal(err)
		}
		res, err := sys.Run(sc.backend)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-36s %10.2fms %12d NIC messages\n", sc.name, res.TotalTime*1e3, res.NICMessages)
	}
	fmt.Println("\nwhen the proxy cannot coalesce, the aggregator trades bounded staging")
	fmt.Println("delay for one message per flush, the modification the paper proposes")
	fmt.Println("for inter-node deployment")
}
