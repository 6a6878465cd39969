package retrieval

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"pgasemb/internal/embedding"
	"pgasemb/internal/tensor"
	"pgasemb/internal/workload"
)

// genConfigs is how many configurations TestGeneratedConfigs draws.
const genConfigs = 48

// genCase is one generated test-scale configuration and the machine it runs
// on.
type genCase struct {
	cfg   Config
	nodes int
}

// label names the features a generated case turns on, so a failing subtest
// says what it ran without a debugger.
func (c genCase) label() string {
	cfg := c.cfg
	parts := []string{fmt.Sprintf("%dgpu", cfg.GPUs)}
	if c.nodes > 1 {
		parts = append(parts, fmt.Sprintf("%dnodes", c.nodes))
	}
	if cfg.Distribution == workload.Zipf {
		parts = append(parts, fmt.Sprintf("zipf%g", cfg.ZipfExponent))
	}
	if cfg.Dedup {
		parts = append(parts, "dedup")
	}
	if cfg.CacheFraction > 0 {
		parts = append(parts, "cache")
	}
	if cfg.Replicas > 1 {
		parts = append(parts, fmt.Sprintf("replicas%d", cfg.Replicas))
	}
	if cfg.WirePrecision != FP32 {
		parts = append(parts, cfg.WirePrecision.String())
	}
	if cfg.PipelineDepth > 1 {
		parts = append(parts, fmt.Sprintf("depth%d", cfg.PipelineDepth))
	}
	if cfg.GreedyPlan {
		parts = append(parts, "greedy")
	}
	if cfg.PerFeatureMaxPooling != nil {
		parts = append(parts, "perfeature")
	}
	if cfg.AdaptivePlacement {
		parts = append(parts, fmt.Sprintf("placement%d", cfg.RebalanceEvery))
		if cfg.HotTables > 0 {
			parts = append(parts, fmt.Sprintf("hot%d", cfg.HotTables))
		}
	}
	return strings.Join(parts, "+")
}

// generateConfig draws one functional test-scale configuration from r. Every
// feature is drawn independently, so some combinations are ones Validate
// refuses (replicas beside dedup or placement, more replicas than GPUs,
// every table mirrored hot); those cases check the refusal instead. The node
// count always divides the GPU count: an uneven machine is a hardware error,
// not a Config one.
func generateConfig(r *rand.Rand) genCase {
	gpus := 1 + r.IntN(4)
	tables := gpus + r.IntN(6)
	cfg := Config{
		GPUs:            gpus,
		TotalTables:     tables,
		Rows:            16 << r.IntN(4),
		Dim:             4 << r.IntN(2),
		BatchSize:       gpus * (4 + r.IntN(12)),
		MinPooling:      r.IntN(2),
		MaxPooling:      2 + r.IntN(6),
		Batches:         2 + r.IntN(4),
		Seed:            r.Uint64(),
		ChunksPerKernel: 1 + r.IntN(4),
		Functional:      true,
		GreedyPlan:      r.IntN(2) == 0,
		NullProbability: []float64{0, 0.1, 0.4}[r.IntN(3)],
		Dedup:           r.IntN(2) == 0,
		CacheFraction:   []float64{0, 0, 1e-9, 1e-8, 1e-7}[r.IntN(5)],
		WirePrecision:   []Precision{FP32, FP16, Int8}[r.IntN(3)],
		PipelineDepth:   1 + r.IntN(3),
	}
	if r.IntN(2) == 0 {
		cfg.Pooling = embedding.MeanPooling
	}
	if r.IntN(2) == 0 {
		cfg.Distribution = workload.Zipf
		cfg.ZipfExponent = []float64{0.9, 1.05, 1.2}[r.IntN(3)]
	}
	if r.IntN(3) == 0 {
		cfg.PerFeatureMaxPooling = make([]int, tables)
		for f := range cfg.PerFeatureMaxPooling {
			cfg.PerFeatureMaxPooling[f] = r.IntN(13)
		}
	}
	if r.IntN(3) == 0 {
		cfg.Replicas = 2 + r.IntN(gpus)
	}
	if r.IntN(3) == 0 {
		cfg.AdaptivePlacement = true
		cfg.RebalanceEvery = 1 + r.IntN(3)
		cfg.HotTables = r.IntN(3)
	}
	nodes := 1
	if gpus%2 == 0 && r.IntN(2) == 0 {
		nodes = 2
	}
	return genCase{cfg: cfg, nodes: nodes}
}

// TestGeneratedConfigs extends the registry gate from the hand-enumerated
// grids to seeded random configurations, each run by every registered
// backend. A configuration Validate accepts must run to completion, match
// the serial Reference byte for byte, land its timing-only run on the
// functional run's simulated time, and give the same outputs pipelined as
// serially. One Validate refuses must come back as a setup error, never a
// panic.
func TestGeneratedConfigs(t *testing.T) {
	r := rand.New(rand.NewPCG(2024, 39))
	for i := 0; i < genConfigs; i++ {
		c := generateConfig(r)
		valid := c.cfg.Validate() == nil
		for _, name := range RegisteredBackends() {
			t.Run(fmt.Sprintf("%02d-%s/%s", i, c.label(), name), func(t *testing.T) {
				if !valid {
					if _, err := genRun(t, c, name, true, 1); err == nil {
						t.Fatal("Validate refuses the config but the run set up without error")
					}
					return
				}
				checkGenerated(t, c, name)
			})
		}
	}
}

// checkGenerated runs an accepted configuration functionally and timing-only,
// serially and pipelined (at the configuration's depth, or 2 when it asks for
// none), and checks the registry gate's invariants on every run.
func checkGenerated(t *testing.T, c genCase, name string) {
	depth := max(c.cfg.PipelineDepth, 2)
	var serial *Result
	for _, d := range []int{1, depth} {
		fRes, err := genRun(t, c, name, true, d)
		if err != nil {
			t.Fatalf("depth %d: accepted config failed: %v", d, err)
		}
		if d == 1 {
			serial = fRes
		} else {
			for g := range fRes.Final {
				if !tensor.Equal(fRes.Final[g], serial.Final[g]) {
					t.Fatalf("depth %d: GPU %d differs from the depth-1 run (max diff %g)",
						d, g, tensor.MaxAbsDiff(fRes.Final[g], serial.Final[g]))
				}
			}
		}
		tRes, err := genRun(t, c, name, false, d)
		if err != nil {
			t.Fatalf("depth %d: accepted timing config failed: %v", d, err)
		}
		if fRes.TotalTime != tRes.TotalTime {
			t.Errorf("depth %d: functional total %g != timing total %g", d, fRes.TotalTime, tRes.TotalTime)
		}
	}
}

// genRun sets up and runs one generated case at pipeline depth d, checking a
// functional run's outputs against the serial Reference. A panic anywhere in
// set-up or the run fails the test with its message instead of killing the
// test binary.
func genRun(t *testing.T, c genCase, name string, functional bool, d int) (res *Result, err error) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("panic: %v", p)
		}
	}()
	cfg := c.cfg
	cfg.Functional = functional
	cfg.PipelineDepth = d
	s, err := NewSystem(cfg, ClusterHardware(c.nodes))
	if err != nil {
		return nil, err
	}
	be, err := NewBackendByName(name)
	if err != nil {
		t.Fatal(err)
	}
	if res, err = s.Run(be); err != nil {
		return nil, err
	}
	if functional {
		want := mustReference(t, s, res.LastBatch)
		for g := range want {
			if !tensor.Equal(res.Final[g], want[g]) {
				t.Fatalf("depth %d: GPU %d differs from reference (max diff %g)",
					d, g, tensor.MaxAbsDiff(res.Final[g], want[g]))
			}
		}
	}
	return res, nil
}
