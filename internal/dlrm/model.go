// Package dlrm implements the full deep-learning recommendation model of
// the paper's Figure 1 around the EMB layer: a dense-feature MLP (the
// paper's "top MLP"), the feature-interaction layer (pairwise dots), the
// post-interaction MLP (the paper's "bottom MLP") and a sigmoid head —
// plus a timed multi-GPU inference pipeline in which the dense path runs
// data-parallel and concurrently with the model-parallel embedding
// retrieval, exactly the execution structure of the paper's Figure 4.
package dlrm

import (
	"fmt"
	"math"
	"sync"

	"pgasemb/internal/sim"
	"pgasemb/internal/tensor"
)

// Linear is one dense layer: y = x W + b.
type Linear struct {
	In, Out int
	W       *tensor.Tensor // (In, Out)
	B       *tensor.Tensor // (Out)
}

// NewLinear returns a layer with Xavier-style N(0, 2/(in+out)) weights.
func NewLinear(in, out int, rng *sim.RNG) *Linear {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("dlrm: invalid linear %dx%d", in, out))
	}
	l := &Linear{In: in, Out: out}
	l.initWeights(rng)
	return l
}

// initWeights draws the layer's N(0, 2/(In+Out)) weights from rng and zeroes
// its bias.
func (l *Linear) initWeights(rng *sim.RNG) {
	std := float32(math.Sqrt(2 / float64(l.In+l.Out)))
	l.W = tensor.New(l.In, l.Out).RandomNormal(rng, std)
	l.B = tensor.New(l.Out)
}

// Forward applies the layer to a (batch, In) input.
func (l *Linear) Forward(x *tensor.Tensor) *tensor.Tensor {
	return tensor.MatMul(x, l.W).AddBias(l.B)
}

// FLOPs returns the multiply-add count for a batch.
func (l *Linear) FLOPs(batch int) float64 {
	return 2 * float64(batch) * float64(l.In) * float64(l.Out)
}

// Bytes returns the memory traffic for a batch (weights + activations).
func (l *Linear) Bytes(batch int) float64 {
	return 4 * (float64(l.In)*float64(l.Out) + float64(batch)*float64(l.In+l.Out))
}

// MLP is a stack of Linear layers with ReLU between them (none after the
// last).
type MLP struct {
	Layers []*Linear
}

// NewMLP builds an MLP through the given dimensions, e.g. {13, 512, 64}.
func NewMLP(dims []int, rng *sim.RNG) *MLP {
	if len(dims) < 2 {
		panic(fmt.Sprintf("dlrm: MLP needs at least two dims, got %v", dims))
	}
	m := &MLP{}
	for i := 0; i+1 < len(dims); i++ {
		m.Layers = append(m.Layers, NewLinear(dims[i], dims[i+1], rng))
	}
	return m
}

// mlpShape builds an MLP's layer shapes through dims, with no weights.
func mlpShape(dims []int) *MLP {
	m := &MLP{Layers: make([]*Linear, len(dims)-1)}
	for i := range m.Layers {
		m.Layers[i] = &Linear{In: dims[i], Out: dims[i+1]}
	}
	return m
}

// Forward applies the stack to a (batch, dims[0]) input.
func (m *MLP) Forward(x *tensor.Tensor) *tensor.Tensor {
	for i, l := range m.Layers {
		x = l.Forward(x)
		if i+1 < len(m.Layers) {
			x.ReLU()
		}
	}
	return x
}

// FLOPs returns the stack's multiply-add count for a batch.
func (m *MLP) FLOPs(batch int) float64 {
	var sum float64
	for _, l := range m.Layers {
		sum += l.FLOPs(batch)
	}
	return sum
}

// Bytes returns the stack's memory traffic for a batch.
func (m *MLP) Bytes(batch int) float64 {
	var sum float64
	for _, l := range m.Layers {
		sum += l.Bytes(batch)
	}
	return sum
}

// OutDim returns the output dimension.
func (m *MLP) OutDim() int { return m.Layers[len(m.Layers)-1].Out }

// InDim returns the input dimension.
func (m *MLP) InDim() int { return m.Layers[0].In }

// ModelConfig describes a DLRM (paper naming: the top MLP processes dense
// features, the bottom MLP follows the interaction layer).
type ModelConfig struct {
	DenseFeatures int   // width of the dense input
	NumSparse     int   // number of sparse features (embedding tables)
	EmbDim        int   // embedding dimension d
	TopHidden     []int // hidden sizes of the dense-path MLP (output is EmbDim)
	BottomHidden  []int // hidden sizes of the post-interaction MLP (output is 1)
}

// DefaultModelConfig mirrors the Meta DLRM benchmark's small configuration.
func DefaultModelConfig(numSparse, embDim int) ModelConfig {
	return ModelConfig{
		DenseFeatures: 13,
		NumSparse:     numSparse,
		EmbDim:        embDim,
		TopHidden:     []int{512, 256},
		BottomHidden:  []int{512, 256},
	}
}

// Validate reports configuration errors.
func (c ModelConfig) Validate() error {
	switch {
	case c.DenseFeatures <= 0:
		return fmt.Errorf("dlrm: DenseFeatures must be positive")
	case c.NumSparse <= 0:
		return fmt.Errorf("dlrm: NumSparse must be positive")
	case c.EmbDim <= 0:
		return fmt.Errorf("dlrm: EmbDim must be positive")
	}
	for _, h := range c.TopHidden {
		if h <= 0 {
			return fmt.Errorf("dlrm: TopHidden %v has a non-positive layer width", c.TopHidden)
		}
	}
	for _, h := range c.BottomHidden {
		if h <= 0 {
			return fmt.Errorf("dlrm: BottomHidden %v has a non-positive layer width", c.BottomHidden)
		}
	}
	return nil
}

// Model holds the dense-path weights. In the multi-GPU pipeline the model
// is replicated (data parallelism); only the embedding tables are sharded.
//
// A model starts shape-only: its layers carry In and Out, which is all the
// timing model reads (FLOPs, Bytes, InDim, OutDim), and nil W and B. The
// first Forward draws every weight, so timing-only runs never build them.
// A Model must not be copied.
type Model struct {
	Cfg    ModelConfig
	Top    *MLP // dense -> EmbDim
	Bottom *MLP // interaction -> 1

	seed    uint64
	weights sync.Once
}

// NewModel builds a model whose weights are reproducible from seed. Only the
// layer shapes are built here; the first Forward materialises the weights.
func NewModel(cfg ModelConfig, seed uint64) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	topDims := append([]int{cfg.DenseFeatures}, cfg.TopHidden...)
	topDims = append(topDims, cfg.EmbDim)
	// Interaction output: pairwise dots of (NumSparse+1) feature vectors
	// plus the dense projection appended (the DLRM "cat" of z and x).
	features := cfg.NumSparse + 1
	interOut := features*(features-1)/2 + cfg.EmbDim
	botDims := append([]int{interOut}, cfg.BottomHidden...)
	botDims = append(botDims, 1)
	return &Model{
		Cfg:    cfg,
		Top:    mlpShape(topDims),
		Bottom: mlpShape(botDims),
		seed:   seed,
	}, nil
}

// materialize draws every layer's weights, Top then Bottom in layer order,
// from the model's seeded stream. Safe for concurrent use.
func (m *Model) materialize() {
	m.weights.Do(func() {
		rng := sim.NewRNG(m.seed ^ 0xD14A)
		for _, mlp := range []*MLP{m.Top, m.Bottom} {
			for _, l := range mlp.Layers {
				l.initWeights(rng)
			}
		}
	})
}

// Forward computes predictions for a minibatch: dense is (B, DenseFeatures)
// and emb is (B, NumSparse, EmbDim) — the EMB layer's output. Returns
// (B, 1) click probabilities. The first call on a model materialises its
// weights.
func (m *Model) Forward(dense, emb *tensor.Tensor) *tensor.Tensor {
	b := dense.Dim(0)
	if emb.Dim(0) != b || emb.Dim(1) != m.Cfg.NumSparse || emb.Dim(2) != m.Cfg.EmbDim {
		panic(fmt.Sprintf("dlrm: emb shape %v does not match (batch=%d, sparse=%d, dim=%d)",
			emb.Shape(), b, m.Cfg.NumSparse, m.Cfg.EmbDim))
	}
	m.materialize()
	z := m.Top.Forward(dense) // (B, d)

	// Stack z with the embeddings: (B, NumSparse+1, d).
	features := m.Cfg.NumSparse + 1
	stacked := tensor.New(b, features, m.Cfg.EmbDim)
	sd := stacked.Data()
	zd := z.Data()
	ed := emb.Contiguous().Data()
	d := m.Cfg.EmbDim
	for s := 0; s < b; s++ {
		copy(sd[s*features*d:], zd[s*d:(s+1)*d])
		copy(sd[(s*features+1)*d:(s+1)*features*d], ed[s*m.Cfg.NumSparse*d:(s+1)*m.Cfg.NumSparse*d])
	}

	inter := tensor.DotInteraction(stacked) // (B, pairs)
	cat := tensor.ConcatCols(z, inter)      // (B, d + pairs)... order: z first
	return m.Bottom.Forward(cat).Sigmoid()  // (B, 1)
}

// DensePathFLOPs returns the per-minibatch FLOPs of the data-parallel path
// (top MLP + interaction + bottom MLP) for the timing model.
func (m *Model) DensePathFLOPs(batch int) float64 {
	features := m.Cfg.NumSparse + 1
	interFLOPs := float64(batch) * float64(features*(features-1)/2) * float64(2*m.Cfg.EmbDim)
	return m.Top.FLOPs(batch) + interFLOPs + m.Bottom.FLOPs(batch)
}

// DensePathBytes returns the per-minibatch traffic of the data-parallel
// path.
func (m *Model) DensePathBytes(batch int) float64 {
	features := m.Cfg.NumSparse + 1
	interBytes := 4 * float64(batch) * float64(features*m.Cfg.EmbDim+features*(features-1)/2)
	return m.Top.Bytes(batch) + interBytes + m.Bottom.Bytes(batch)
}
