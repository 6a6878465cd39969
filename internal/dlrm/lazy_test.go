package dlrm

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sync"
	"testing"

	"pgasemb/internal/retrieval"
	"pgasemb/internal/sim"
	"pgasemb/internal/tensor"
)

// weightDigest hashes every weight and bias of m, Top then Bottom, in layer
// order.
func weightDigest(m *Model) string {
	h := sha256.New()
	var buf [4]byte
	put := func(t *tensor.Tensor) {
		for _, v := range t.Data() {
			binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
			h.Write(buf[:])
		}
	}
	for _, mlp := range []*MLP{m.Top, m.Bottom} {
		for _, l := range mlp.Layers {
			put(l.W)
			put(l.B)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// smallForward runs one functional forward over a 2-sample batch.
func smallForward(m *Model) *tensor.Tensor {
	rng := sim.NewRNG(77)
	dense := tensor.New(2, m.Cfg.DenseFeatures).RandomUniform(rng, 0, 1)
	emb := tensor.New(2, m.Cfg.NumSparse, m.Cfg.EmbDim).RandomUniform(rng, -1, 1)
	return m.Forward(dense, emb)
}

// modelWeightsDigest is weightDigest of DefaultModelConfig(8, 16) at seed
// 2024, recorded when NewModel still drew every weight eagerly.
const modelWeightsDigest = "c3ae6c683bc3e0fcb14fa4e0d6046dcddad3d0199195c6a1dcfb2bba6d1a86a2"

// TestModelWeightsGolden pins the weights a model's first forward builds,
// and the predictions they give, so materialising them lazily draws exactly
// the stream eager construction drew.
func TestModelWeightsGolden(t *testing.T) {
	m, err := NewModel(DefaultModelConfig(8, 16), 2024)
	if err != nil {
		t.Fatal(err)
	}
	if !unmaterialized(m) {
		t.Fatal("NewModel drew weights before any Forward")
	}
	out := smallForward(m)
	if got, want := weightDigest(m), modelWeightsDigest; got != want {
		t.Errorf("weight digest %s, want %s", got, want)
	}
	got := [2]uint32{math.Float32bits(out.At(0, 0)), math.Float32bits(out.At(1, 0))}
	if want := [2]uint32{0x3ef87c02, 0x3edcdfac}; got != want {
		t.Errorf("prediction bits %#x, want %#x", got, want)
	}
}

// unmaterialized reports whether no layer of m holds weights yet.
func unmaterialized(m *Model) bool {
	for _, mlp := range []*MLP{m.Top, m.Bottom} {
		for _, l := range mlp.Layers {
			if l.W != nil || l.B != nil {
				return false
			}
		}
	}
	return true
}

// A timing-only pipeline reads only layer shapes, so it leaves its model
// unmaterialised, and it times the same with a shape-only model as with one
// a functional forward has already materialised.
func TestTimingPipelineLeavesModelUnmaterialized(t *testing.T) {
	cfg := retrieval.TestScaleConfig(2)
	cfg.Functional = false
	spec, err := retrieval.NewSystemSpec(cfg, retrieval.DefaultHardware())
	if err != nil {
		t.Fatal(err)
	}
	run := func(m *Model) *PipelineResult {
		t.Helper()
		pl, err := NewPipelineRun(spec, &retrieval.PGASFused{}, m, cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		res, err := pl.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	lazy, err := NewModel(DefaultModelConfig(cfg.TotalTables, cfg.Dim), cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	got := run(lazy)
	if !unmaterialized(lazy) {
		t.Fatal("a timing-only pipeline run materialised the model's weights")
	}
	eager, _ := NewModel(DefaultModelConfig(cfg.TotalTables, cfg.Dim), cfg.Seed)
	eager.materialize()
	if want := run(eager); got.TotalTime != want.TotalTime || got.DenseTime != want.DenseTime {
		t.Fatalf("shape-only model timed %v/%v, materialised %v/%v",
			got.TotalTime, got.DenseTime, want.TotalTime, want.DenseTime)
	}
}

// The serving layer shares one model across dispatches, so first forwards
// may race to materialise it; every caller must see the same weights.
func TestConcurrentFirstForward(t *testing.T) {
	m, err := NewModel(DefaultModelConfig(8, 16), 2024)
	if err != nil {
		t.Fatal(err)
	}
	outs := make([]*tensor.Tensor, 4)
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i] = smallForward(m)
		}(i)
	}
	wg.Wait()
	for i, out := range outs[1:] {
		if !tensor.Equal(out, outs[0]) {
			t.Fatalf("forward %d disagrees with forward 0", i+1)
		}
	}
	if got, want := weightDigest(m), modelWeightsDigest; got != want {
		t.Fatalf("weight digest %s, want %s", got, want)
	}
}
