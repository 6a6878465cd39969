package dlrm_test

import (
	"fmt"
	"testing"

	"pgasemb/internal/dlrm"
	"pgasemb/internal/retrieval"
)

func TestPublicAPIPipeline(t *testing.T) {
	pl, err := dlrm.NewPipeline(retrieval.TestScaleConfig(2), retrieval.DefaultHardware(), &retrieval.PGASFused{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := pl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Predictions) != 2 {
		t.Fatalf("predictions for %d GPUs", len(res.Predictions))
	}
}

// ExampleNewPipeline runs DLRM inference end to end and prints the shape of
// the predictions.
func ExampleNewPipeline() {
	pl, err := dlrm.NewPipeline(retrieval.TestScaleConfig(2), retrieval.DefaultHardware(), &retrieval.PGASFused{})
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
