package pgasemb_test

import (
	"context"
	"fmt"

	"pgasemb"
)

// The package examples double as verified documentation: each runs under
// `go test` and its output is checked.

// ExampleNewSystem runs both communication schemes on a small functional
// configuration and verifies they agree.
func ExampleNewSystem() {
	cfg := pgasemb.TestScaleConfig(2)
	var outputs [][]float32
	for _, backend := range []pgasemb.Backend{pgasemb.NewBaseline(), pgasemb.NewPGASFused()} {
		sys, err := pgasemb.NewSystem(cfg, pgasemb.DefaultHardware())
		if err != nil {
			panic(err)
		}
		res, err := sys.Run(backend)
		if err != nil {
			panic(err)
		}
		outputs = append(outputs, res.Final[0].Data())
	}
	identical := true
	for i := range outputs[0] {
		if outputs[0][i] != outputs[1][i] {
			identical = false
		}
	}
	fmt.Println("outputs identical:", identical)
	// Output: outputs identical: true
}

// ExampleRunScaling regenerates the headline of the paper's Table 1 at
// reduced batch count.
func ExampleRunScaling() {
	res, err := pgasemb.RunScaling(context.Background(), pgasemb.WeakScaling, pgasemb.ExperimentOptions{Batches: 2, MaxGPUs: 2})
	if err != nil {
		panic(err)
	}
	fmt.Printf("PGAS beats NCCL baseline at 2 GPUs: %v\n", res.Point(2).Speedup() > 1.8)
	// Output: PGAS beats NCCL baseline at 2 GPUs: true
}

// ExampleNewPipeline runs DLRM inference end to end and prints the shape of
// the predictions.
func ExampleNewPipeline() {
	pl, err := pgasemb.NewPipeline(pgasemb.TestScaleConfig(2), pgasemb.DefaultHardware(), pgasemb.NewPGASFused())
	if err != nil {
		panic(err)
	}
	res, err := pl.Run()
	if err != nil {
		panic(err)
	}
	total := 0
	for _, p := range res.Predictions {
		total += p.Dim(0)
	}
	fmt.Printf("%d click probabilities from %d GPUs\n", total, len(res.Predictions))
	// Output: 32 click probabilities from 2 GPUs
}

// ExampleNewAggregatedPGAS shows the future-work aggregator reducing header
// overhead to nearly nothing.
func ExampleNewAggregatedPGAS() {
	cfg := pgasemb.TestScaleConfig(2)
	sys, err := pgasemb.NewSystem(cfg, pgasemb.DefaultHardware())
	if err != nil {
		panic(err)
	}
	backend := pgasemb.NewAggregatedPGAS(pgasemb.AggregatorConfig{FlushBytes: 16 << 10, MaxWait: 1e-3})
	if _, err := sys.Run(backend); err != nil {
		panic(err)
	}
	pe := sys.PGAS.PE(0)
	aggOverhead := (pe.WireBytes() - pe.PayloadBytes()) / pe.PayloadBytes()

	sys2, err := pgasemb.NewSystem(cfg, pgasemb.DefaultHardware())
	if err != nil {
		panic(err)
	}
	if _, err := sys2.Run(pgasemb.NewPGASFused()); err != nil {
		panic(err)
	}
	pe2 := sys2.PGAS.PE(0)
	directOverhead := (pe2.WireBytes() - pe2.PayloadBytes()) / pe2.PayloadBytes()

	fmt.Println("aggregation cuts header overhead:", aggOverhead < directOverhead/10)
	// Output: aggregation cuts header overhead: true
}
