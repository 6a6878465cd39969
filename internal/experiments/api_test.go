package experiments_test

import (
	"context"
	"fmt"
	"testing"

	"pgasemb/internal/experiments"
)

func TestPublicAPIExperimentHarness(t *testing.T) {
	res, err := experiments.RunScaling(context.Background(), experiments.WeakScaling, experiments.Options{Batches: 2, MaxGPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.SpeedupTable().Render(); got == "" {
		t.Fatal("empty table render")
	}
	if s := res.Point(2).Speedup(); s <= 1 {
		t.Fatalf("speedup %v", s)
	}
}

// ExampleRunScaling regenerates the headline of the paper's Table 1 at
// reduced batch count.
func ExampleRunScaling() {
	res, err := experiments.RunScaling(context.Background(), experiments.WeakScaling, experiments.Options{Batches: 2, MaxGPUs: 2})
	if err != nil {
		panic(err)
	}
	fmt.Printf("PGAS beats NCCL baseline at 2 GPUs: %v\n", res.Point(2).Speedup() > 1.8)
	// Output: PGAS beats NCCL baseline at 2 GPUs: true
}
