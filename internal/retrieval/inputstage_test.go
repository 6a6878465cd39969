package retrieval

import (
	"strings"
	"testing"

	"pgasemb/internal/tensor"
)

func TestInputStagedNames(t *testing.T) {
	serial := &InputStaged{Inner: &PGASFused{}}
	fused := &InputStaged{Inner: &PGASFused{}, Overlap: true}
	if serial.Name() != "pgas-fused+input" || fused.Name() != "pgas-fused+fused-input" {
		t.Fatalf("names: %q / %q", serial.Name(), fused.Name())
	}
}

func TestInputStageAddsTime(t *testing.T) {
	cfg := WeakScalingConfig(2)
	cfg.Batches = 2
	run := func(b Backend) *Result {
		s, err := NewSystem(cfg, DefaultHardware())
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(b)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	bare := run(&PGASFused{})
	staged := run(&InputStaged{Inner: &PGASFused{}})
	if staged.TotalTime <= bare.TotalTime {
		t.Fatalf("input stage added no time: %v vs %v", staged.TotalTime, bare.TotalTime)
	}
	if staged.Breakdown.Get(CompInputStage) <= 0 {
		t.Fatal("input stage not recorded in breakdown")
	}
}

func TestFusedInputHidesMostOfTheStage(t *testing.T) {
	// The paper's proposed fusion: pipelining input preparation under
	// compute leaves only a sliver exposed.
	cfg := WeakScalingConfig(2)
	cfg.Batches = 2
	run := func(b Backend) *Result {
		s, err := NewSystem(cfg, DefaultHardware())
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(b)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(&InputStaged{Inner: &PGASFused{}})
	fused := run(&InputStaged{Inner: &PGASFused{}, Overlap: true})
	if fused.TotalTime >= serial.TotalTime {
		t.Fatalf("fused input (%v) not faster than serial input (%v)",
			fused.TotalTime, serial.TotalTime)
	}
	serialStage := serial.Breakdown.Get(CompInputStage)
	fusedStage := fused.Breakdown.Get(CompInputStage)
	if fusedStage >= serialStage/4 {
		t.Fatalf("fusion exposed %v of input time; serial pays %v — should hide >75%%",
			fusedStage, serialStage)
	}
}

func TestInputStagedFunctionalUnchanged(t *testing.T) {
	// The decorator is timing-only: outputs still match the reference.
	s, err := NewSystem(TestScaleConfig(2), DefaultHardware())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(&InputStaged{Inner: &PGASFused{}, Overlap: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Backend, "fused-input") {
		t.Fatalf("backend name %q", res.Backend)
	}
	want := mustReference(t, s, res.LastBatch)
	for g := range want {
		if !tensor.Equal(res.Final[g], want[g]) {
			t.Fatalf("GPU %d differs from reference under input staging", g)
		}
	}
}
