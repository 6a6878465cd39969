// Quickstart: build a small functional system, run both communication
// schemes, verify they produce identical embeddings, and compare their
// simulated runtimes.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"pgasemb/internal/retrieval"
)

func main() {
	// A test-scale configuration runs the REAL data plane: embeddings are
	// looked up, pooled and moved for real, so the two backends can be
	// compared bit-for-bit.
	cfg := retrieval.TestScaleConfig(4)
	fmt.Printf("quickstart: %d GPUs, %d tables, batch %d, %d batches (functional mode)\n\n",
		cfg.GPUs, cfg.TotalTables, cfg.BatchSize, cfg.Batches)

	run := func(backend retrieval.Backend) *retrieval.Result {
		sys, err := retrieval.NewSystem(cfg, retrieval.DefaultHardware())
		if err != nil {
			log.Fatal(err)
		}
		res, err := sys.Run(backend)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	base := run(&retrieval.Baseline{})
	pgas := run(&retrieval.PGASFused{})

	fmt.Printf("baseline   (NCCL all-to-all + unpack): %8.3fms\n", base.TotalTime*1e3)
	fmt.Printf("pgas-fused (one-sided remote stores):  %8.3fms\n", pgas.TotalTime*1e3)
	fmt.Printf("speedup: %.2fx\n\n", base.TotalTime/pgas.TotalTime)

	// Both backends computed the same batches with the same table weights;
	// their per-GPU outputs must agree exactly.
	for g := range base.Final {
		a, b := base.Final[g].Data(), pgas.Final[g].Data()
		for i := range a {
			if a[i] != b[i] {
				log.Fatalf("GPU %d: outputs differ at element %d", g, i)
			}
		}
	}
	fmt.Println("verified: both schemes produce bit-identical embedding outputs")
	fmt.Printf("wire payload moved per run: %.1f KiB\n", base.CommTrace.Total()/1024)
}
