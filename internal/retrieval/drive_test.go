package retrieval

import (
	"context"
	"fmt"
	"testing"

	"pgasemb/internal/sim"
)

// TestDriveRunsBatchesInLockstep pins Drive's contract at every pipeline
// depth: every GPU runs batch i on the same BatchData, and no GPU enters
// batch i+1 before the slowest GPU has finished batch i. GPU g's body takes
// (g+1) ms, so each batch starts exactly one slowest body after the last.
func TestDriveRunsBatchesInLockstep(t *testing.T) {
	const gpus, batches = 3, 4
	const unit = sim.Duration(1e-3)
	for _, depth := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) {
			cfg := TestScaleConfig(gpus)
			cfg.Functional = false
			cfg.Batches = batches
			cfg.PipelineDepth = depth
			s, err := NewSystem(cfg, DefaultHardware())
			if err != nil {
				t.Fatal(err)
			}
			entered := make([][]sim.Time, gpus)
			seen := make([][]*BatchData, gpus)
			last, err := s.Drive(context.Background(), func(p *sim.Proc, g, i int, bd *BatchData) {
				if i != len(entered[g]) {
					t.Errorf("GPU %d ran batch %d after %d batches", g, i, len(entered[g]))
				}
				entered[g] = append(entered[g], p.Now())
				seen[g] = append(seen[g], bd)
				p.Wait(sim.Duration(g+1) * unit)
			})
			if err != nil {
				t.Fatal(err)
			}
			start := entered[0][0]
			for g := 0; g < gpus; g++ {
				if len(entered[g]) != batches {
					t.Fatalf("GPU %d ran %d batches, want %d", g, len(entered[g]), batches)
				}
				for i := 0; i < batches; i++ {
					if want := start + sim.Time(i*gpus)*unit; entered[g][i] != want {
						t.Errorf("GPU %d entered batch %d at %g, want %g", g, i, entered[g][i], want)
					}
					if seen[g][i] != seen[0][i] {
						t.Errorf("GPU %d ran a different BatchData for batch %d than GPU 0", g, i)
					}
				}
			}
			if last != seen[0][batches-1] {
				t.Error("Drive did not return the last batch it ran")
			}
			if end, want := s.Env.Now(), start+sim.Time(batches*gpus)*unit; end != want {
				t.Errorf("clock ended at %g, want the last batch's makespan %g", end, want)
			}
		})
	}
}
