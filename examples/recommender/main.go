// Recommender: run full DLRM inference — dense MLPs and feature
// interaction around the multi-GPU embedding layer — and show click
// probabilities alongside the timing split between the EMB segment and the
// rest of the model. This is the paper's motivating workload (§I): over 70%
// of inference time at Meta goes to models of this shape.
//
//	go run ./examples/recommender
package main

import (
	"fmt"
	"log"

	"pgasemb/internal/dlrm"
	"pgasemb/internal/retrieval"
)

func main() {
	cfg := retrieval.TestScaleConfig(2)
	cfg.Batches = 2

	fmt.Println("DLRM inference on 2 simulated GPUs")
	fmt.Println("  dense path: 13 dense features -> MLP -> feature interaction -> MLP -> sigmoid")
	fmt.Printf("  sparse path: %d embedding tables, table-wise sharded, %s communication\n\n",
		cfg.TotalTables, "one-sided PGAS")

	for _, backend := range []retrieval.Backend{&retrieval.Baseline{}, &retrieval.PGASFused{}} {
		pl, err := dlrm.NewPipeline(cfg, retrieval.DefaultHardware(), backend)
		if err != nil {
			log.Fatal(err)
		}
		res, err := pl.Run()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s total %8.3fms   EMB segment %8.3fms (%.0f%%)\n",
			backend.Name(), res.TotalTime*1e3, res.EMBTime*1e3, 100*res.EMBTime/res.TotalTime)

		if backend.Name() == "pgas-fused" {
			fmt.Println("\nsample click probabilities (last batch, first GPU's minibatch):")
			preds := res.Predictions[0]
			for i := 0; i < 5 && i < preds.Dim(0); i++ {
				fmt.Printf("  user %2d -> %.4f\n", i, preds.At(i, 0))
			}
		}
	}
}
