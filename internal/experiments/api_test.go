package experiments_test

import (
	"context"
	"fmt"

	"pgasemb/internal/experiments"
)

// ExampleRun regenerates the mechanism ablations at a reduced batch count
// and lists the backends of the suite, baseline first.
func ExampleRun() {
	entries, err := experiments.Manifest("ablations")
	if err != nil {
		panic(err)
	}
	files, err := experiments.Run(context.Background(), entries, experiments.Overrides{Batches: 2})
	if err != nil {
		panic(err)
	}
	for _, row := range files[0][0].Table.Rows {
		fmt.Println(row[0])
	}
	// Output:
	// baseline
	// baseline-direct-placement
	// pgas-overlap-only
	// pgas-fused
	// pgas-aggregated
}
