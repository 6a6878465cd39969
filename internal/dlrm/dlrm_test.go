package dlrm

import (
	"math"
	"testing"

	"pgasemb/internal/retrieval"
	"pgasemb/internal/sim"
	"pgasemb/internal/sparse"
	"pgasemb/internal/tensor"
)

// mustReferencePredictions is ReferencePredictions with test-fatal error
// handling.
func mustReferencePredictions(t *testing.T, pl *Pipeline, batch *sparse.Batch, dense *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	want, err := ReferencePredictions(pl, batch, dense)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func TestLinearForwardKnown(t *testing.T) {
	l := &Linear{In: 2, Out: 2,
		W: tensor.FromSlice([]float32{1, 2, 3, 4}, 2, 2),
		B: tensor.FromSlice([]float32{10, 20}, 2)}
	y := l.Forward(tensor.FromSlice([]float32{1, 1}, 1, 2))
	want := tensor.FromSlice([]float32{14, 26}, 1, 2)
	if !tensor.Equal(y, want) {
		t.Fatalf("Forward = %v, want %v", y, want)
	}
}

func TestLinearCostModels(t *testing.T) {
	l := NewLinear(8, 4, sim.NewRNG(1))
	if l.FLOPs(10) != 2*10*8*4 {
		t.Fatalf("FLOPs = %v", l.FLOPs(10))
	}
	if l.Bytes(10) != 4*(8*4+10*12) {
		t.Fatalf("Bytes = %v", l.Bytes(10))
	}
}

func TestNewLinearPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid linear did not panic")
		}
	}()
	NewLinear(0, 3, sim.NewRNG(1))
}

func TestMLPStructure(t *testing.T) {
	m := NewMLP([]int{13, 512, 64}, sim.NewRNG(2))
	if len(m.Layers) != 2 || m.InDim() != 13 || m.OutDim() != 64 {
		t.Fatalf("MLP structure wrong: %d layers, in=%d out=%d", len(m.Layers), m.InDim(), m.OutDim())
	}
	x := tensor.New(5, 13).RandomUniform(sim.NewRNG(3), 0, 1)
	y := m.Forward(x)
	if y.Dim(0) != 5 || y.Dim(1) != 64 {
		t.Fatalf("forward shape %v", y.Shape())
	}
	if m.FLOPs(5) != 2*5*(13*512+512*64) {
		t.Fatalf("MLP FLOPs = %v", m.FLOPs(5))
	}
	if m.Bytes(1) <= 0 {
		t.Fatal("MLP Bytes must be positive")
	}
}

func TestMLPHiddenReLU(t *testing.T) {
	// With a hidden layer, forcing large negative first-layer bias should
	// zero the hidden activations, making the output equal the final bias.
	m := NewMLP([]int{2, 3, 2}, sim.NewRNG(4))
	m.Layers[0].B.Fill(-1e6)
	m.Layers[1].B.CopyFrom(tensor.FromSlice([]float32{5, -5}, 2))
	y := m.Forward(tensor.FromSlice([]float32{0.1, 0.2}, 1, 2))
	if y.At(0, 0) != 5 || y.At(0, 1) != -5 {
		t.Fatalf("ReLU not applied between layers (or applied after last): %v", y)
	}
}

func TestNewMLPPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("single-dim MLP did not panic")
		}
	}()
	NewMLP([]int{4}, sim.NewRNG(1))
}

func TestModelConfigValidation(t *testing.T) {
	bad := []ModelConfig{
		{DenseFeatures: 0, NumSparse: 1, EmbDim: 1},
		{DenseFeatures: 1, NumSparse: 0, EmbDim: 1},
		{DenseFeatures: 1, NumSparse: 1, EmbDim: 0},
		{DenseFeatures: 13, NumSparse: 1, EmbDim: 1, TopHidden: []int{0}},
		{DenseFeatures: 13, NumSparse: 1, EmbDim: 1, BottomHidden: []int{8, -2}},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("config %d not rejected", i)
		}
		if _, err := NewModel(c, 1); err == nil {
			t.Errorf("NewModel accepted config %d", i)
		}
	}
}

func TestModelForwardShapesAndRange(t *testing.T) {
	cfg := DefaultModelConfig(4, 8)
	m, err := NewModel(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(5)
	dense := tensor.New(6, 13).RandomUniform(rng, 0, 1)
	emb := tensor.New(6, 4, 8).RandomUniform(rng, -1, 1)
	out := m.Forward(dense, emb)
	if out.Dim(0) != 6 || out.Dim(1) != 1 {
		t.Fatalf("prediction shape %v", out.Shape())
	}
	for i := 0; i < 6; i++ {
		v := out.At(i, 0)
		if v <= 0 || v >= 1 {
			t.Fatalf("prediction %v outside (0,1)", v)
		}
	}
}

func TestModelForwardDeterministic(t *testing.T) {
	cfg := DefaultModelConfig(3, 4)
	m1, _ := NewModel(cfg, 9)
	m2, _ := NewModel(cfg, 9)
	rng := sim.NewRNG(6)
	dense := tensor.New(2, 13).RandomUniform(rng, 0, 1)
	emb := tensor.New(2, 3, 4).RandomUniform(rng, -1, 1)
	if !tensor.Equal(m1.Forward(dense, emb), m2.Forward(dense, emb)) {
		t.Fatal("same-seed models disagree")
	}
}

func TestModelForwardShapePanics(t *testing.T) {
	m, _ := NewModel(DefaultModelConfig(3, 4), 1)
	defer func() {
		if recover() == nil {
			t.Error("mismatched emb shape did not panic")
		}
	}()
	m.Forward(tensor.New(2, 13), tensor.New(2, 5, 4))
}

func TestDensePathCostsPositive(t *testing.T) {
	m, _ := NewModel(DefaultModelConfig(8, 16), 1)
	if m.DensePathBytes(32) <= 0 {
		t.Fatal("dense path cost must be positive")
	}
	if m.DensePathBytes(64) <= m.DensePathBytes(32) {
		t.Fatal("dense path bytes must grow with batch")
	}
}

func newTestPipeline(t *testing.T, gpus int, backend retrieval.Backend) *Pipeline {
	t.Helper()
	cfg := retrieval.TestScaleConfig(gpus)
	pl, err := NewPipeline(cfg, retrieval.DefaultHardware(), backend)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestPipelinePredictionsMatchReference(t *testing.T) {
	for _, backend := range []retrieval.Backend{&retrieval.Baseline{}, &retrieval.PGASFused{}} {
		for gpus := 1; gpus <= 3; gpus++ {
			pl := newTestPipeline(t, gpus, backend)
			res, err := pl.Run()
			if err != nil {
				t.Fatal(err)
			}
			want := mustReferencePredictions(t, pl, res.LastSparse, res.LastDense)
			at := 0
			for g := 0; g < gpus; g++ {
				part := res.Predictions[g]
				for i := 0; i < part.Dim(0); i++ {
					if got, w := part.At(i, 0), want.At(at, 0); got != w {
						t.Fatalf("%s/%d GPUs: prediction %d = %v, want %v", backend.Name(), gpus, at, got, w)
					}
					at++
				}
			}
			if at != pl.Sys.Cfg.BatchSize {
				t.Fatalf("predictions cover %d of %d samples", at, pl.Sys.Cfg.BatchSize)
			}
		}
	}
}

func TestPipelinePredictionsIdenticalAcrossGPUCounts(t *testing.T) {
	// Data parallelism must not change the math: the same global batch
	// yields the same predictions on 1, 2 and 4 GPUs.
	collect := func(gpus int) []float32 {
		pl := newTestPipeline(t, gpus, &retrieval.PGASFused{})
		res, err := pl.Run()
		if err != nil {
			t.Fatal(err)
		}
		var all []float32
		for _, part := range res.Predictions {
			all = append(all, part.Data()...)
		}
		return all
	}
	ref := collect(1)
	for _, gpus := range []int{2, 4} {
		got := collect(gpus)
		if len(got) != len(ref) {
			t.Fatalf("%d GPUs: %d predictions, want %d", gpus, len(got), len(ref))
		}
		for i := range ref {
			if math.Abs(float64(got[i]-ref[i])) > 1e-6 {
				t.Fatalf("%d GPUs: prediction %d = %v, single GPU %v", gpus, i, got[i], ref[i])
			}
		}
	}
}

func TestPipelineEMBTimeMeasured(t *testing.T) {
	pl := newTestPipeline(t, 2, &retrieval.Baseline{})
	res, err := pl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.EMBTime <= 0 || res.TotalTime <= 0 {
		t.Fatalf("times not positive: emb=%v total=%v", res.EMBTime, res.TotalTime)
	}
	if res.EMBTime >= res.TotalTime {
		t.Fatalf("EMB segment (%v) should be a strict part of total (%v)", res.EMBTime, res.TotalTime)
	}
	if res.EMBBreakdown.Get(retrieval.CompComputation) <= 0 {
		t.Fatal("EMB breakdown missing computation")
	}
}

func TestPipelinePGASFasterThanBaselineEndToEnd(t *testing.T) {
	// The paper's bottom line must survive embedding the EMB layer in the
	// full inference pipeline.
	cfg := retrieval.WeakScalingConfig(2)
	cfg.Batches = 3
	base, err := NewPipeline(cfg, retrieval.DefaultHardware(), &retrieval.Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}
	pg, err := NewPipeline(cfg, retrieval.DefaultHardware(), &retrieval.PGASFused{})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := pg.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rp.TotalTime >= rb.TotalTime {
		t.Fatalf("PGAS end-to-end %v not faster than baseline %v", rp.TotalTime, rb.TotalTime)
	}
	if rp.EMBTime >= rb.EMBTime {
		t.Fatalf("PGAS EMB segment %v not faster than baseline %v", rp.EMBTime, rb.EMBTime)
	}
}

// The software-pipelined schedule must not change the math: at any depth the
// predictions are byte-identical to the serial (depth 1) schedule's.
func TestPipelineDepthPredictionsBitExact(t *testing.T) {
	for _, name := range []string{"baseline", "pgas-fused", "pgas-overlap-only"} {
		collect := func(depth int) []*tensor.Tensor {
			backend, err := retrieval.NewBackendByName(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := retrieval.TestScaleConfig(3)
			cfg.PipelineDepth = depth
			pl, err := NewPipeline(cfg, retrieval.DefaultHardware(), backend)
			if err != nil {
				t.Fatal(err)
			}
			res, err := pl.Run()
			if err != nil {
				t.Fatal(err)
			}
			return res.Predictions
		}
		ref := collect(1)
		for _, depth := range []int{2, 3} {
			got := collect(depth)
			for g := range ref {
				if !tensor.Equal(got[g], ref[g]) {
					t.Fatalf("%s: depth %d GPU %d predictions differ from serial (max diff %g)",
						name, depth, g, tensor.MaxAbsDiff(got[g], ref[g]))
				}
			}
		}
	}
}

// Deepening the pipeline can only hide more of the EMB exchange behind dense
// compute: for the one-sided backends and the baseline's A1 ablation the
// EMB-visible stall (total minus dense compute) is non-increasing in depth,
// the dense-compute floor itself is depth-invariant, and double buffering
// buys pgas-fused a ≥10% end-to-end win on the default 4-GPU weak-scaling
// shape.
func TestPipelineDepthMonotonicStall(t *testing.T) {
	run := func(t *testing.T, name string, depth int) *PipelineResult {
		t.Helper()
		backend, err := retrieval.NewBackendByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := retrieval.WeakScalingConfig(4)
		cfg.Batches = 6
		cfg.PipelineDepth = depth
		pl, err := NewPipeline(cfg, retrieval.DefaultHardware(), backend)
		if err != nil {
			t.Fatal(err)
		}
		res, err := pl.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, name := range []string{"pgas-fused", "pgas-overlap-only", "baseline-direct-placement"} {
		var prev *PipelineResult
		for _, depth := range []int{1, 2, 3} {
			res := run(t, name, depth)
			if res.EMBStall <= 0 {
				t.Fatalf("%s depth %d: non-positive EMB stall %v (total %v, dense %v)",
					name, depth, res.EMBStall, res.TotalTime, res.DenseTime)
			}
			if prev != nil {
				if res.DenseTime != prev.DenseTime {
					t.Errorf("%s depth %d: dense floor %v changed from %v — it must be depth-invariant",
						name, depth, res.DenseTime, prev.DenseTime)
				}
				if res.EMBStall > prev.EMBStall {
					t.Errorf("%s depth %d: EMB stall %v grew from %v at the shallower depth",
						name, depth, res.EMBStall, prev.EMBStall)
				}
			}
			prev = res
		}
	}
	serial := run(t, "pgas-fused", 1)
	piped := run(t, "pgas-fused", 2)
	if gain := 1 - piped.TotalTime/serial.TotalTime; gain < 0.10 {
		t.Errorf("pgas-fused depth 2 end-to-end gain %.1f%% below the 10%% floor (%.2fms vs %.2fms)",
			100*gain, float64(piped.TotalTime)*1e3, float64(serial.TotalTime)*1e3)
	}
}
