// Commsmoothing: visualise the paper's central mechanism — one-sided small
// messages spread communication across the whole computation window, while
// the collective baseline idles the network during compute and then bursts.
// Also demonstrates the future-work aggregator, which trades a little
// latency for fewer message headers (the knob for slower inter-node links).
//
//	go run ./examples/commsmoothing
package main

import (
	"context"
	"fmt"
	"log"

	"pgasemb/internal/experiments"
	"pgasemb/internal/retrieval"
)

func main() {
	// Profile the paper's Figure 7 setting: weak scaling on 2 GPUs.
	cv, err := experiments.RunCommVolume(context.Background(), experiments.WeakScaling, 2, 96, experiments.Options{Batches: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(cv.CommVolumeCharts(8))

	// The aggregator variant: same traffic, fewer headers.
	fmt.Println("\naggregated one-sided stores (future-work variant):")
	cfg := retrieval.WeakScalingConfig(2)
	cfg.Batches = 2
	for _, tc := range []struct {
		name    string
		backend retrieval.Backend
	}{
		{"direct (one message per vector)", &retrieval.PGASFused{}},
		{"aggregated (64 KiB flushes)", &retrieval.PGASFused{Aggregate: &retrieval.AggregatorConfig{
			FlushBytes: 64 << 10,
			MaxWait:    50e-6,
		}}},
	} {
		sys, err := retrieval.NewSystem(cfg, retrieval.DefaultHardware())
		if err != nil {
			log.Fatal(err)
		}
		res, err := sys.Run(tc.backend)
		if err != nil {
			log.Fatal(err)
		}
		wire := sys.PGAS.PE(0).WireBytes() + sys.PGAS.PE(1).WireBytes()
		payload := sys.PGAS.PE(0).PayloadBytes() + sys.PGAS.PE(1).PayloadBytes()
		fmt.Printf("  %-34s runtime %8.3fms  header overhead %5.2f%%\n",
			tc.name, res.TotalTime*1e3, 100*(wire-payload)/payload)
	}
}
