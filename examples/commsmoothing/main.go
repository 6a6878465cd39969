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
	// Profile the paper's Figure 7 setting, weak scaling on 2 GPUs, with
	// the artifact manifest's commvolume entry at 2 batches.
	entries, err := experiments.Manifest("commvolume")
	if err != nil {
		log.Fatal(err)
	}
	files, err := experiments.Run(context.Background(), entries, experiments.Overrides{Batches: 2})
	if err != nil {
		log.Fatal(err)
	}
	for _, f := range files[0] {
		if f.Stem == "fig7_comm_volume_2gpu_chart" {
			fmt.Print(f.Text)
		}
	}

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
