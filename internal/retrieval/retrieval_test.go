package retrieval

import (
	"math"
	"strings"
	"testing"

	"pgasemb/internal/sim"
	"pgasemb/internal/sparse"
	"pgasemb/internal/tensor"
	"pgasemb/internal/workload"
)

// mustReference is Reference with test-fatal error handling.
func mustReference(t *testing.T, s *System, batch *sparse.Batch) []*tensor.Tensor {
	t.Helper()
	want, err := Reference(s, batch)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func TestConfigValidation(t *testing.T) {
	muts := []struct {
		name string
		mut  func(*Config)
	}{
		{"gpus", func(c *Config) { c.GPUs = 0 }},
		{"tables", func(c *Config) { c.TotalTables = 1; c.GPUs = 2 }},
		{"rows", func(c *Config) { c.Rows = 0 }},
		{"dim", func(c *Config) { c.Dim = 0 }},
		{"batch", func(c *Config) { c.BatchSize = 1; c.GPUs = 2; c.TotalTables = 2 }},
		{"pooling", func(c *Config) { c.MaxPooling = -1 }},
		{"batches", func(c *Config) { c.Batches = 0 }},
		{"chunks", func(c *Config) { c.ChunksPerKernel = 0 }},
		{"precision", func(c *Config) { c.WirePrecision = Precision(99) }},
		// The two pairwise exclusions left: the dedup and placement walks
		// key pairs by owner, replica failover re-routes them per batch.
		{"replicas+dedup", func(c *Config) { c.Replicas = 2; c.Dedup = true }},
		{"placement+replicas", func(c *Config) { c.Replicas = 2; c.AdaptivePlacement = true; c.RebalanceEvery = 2 }},
	}
	for _, m := range muts {
		c := TestScaleConfig(2)
		m.mut(&c)
		if c.Validate() == nil {
			t.Errorf("%s not rejected", m.name)
		}
	}
	// A NaN float field is refused by a message naming it, not by accident
	// further down (a 1-slot cache, a rank-table mismatch).
	nan := math.NaN()
	for field, mut := range map[string]func(*Config){
		"CacheFraction":   func(c *Config) { c.CacheFraction = nan },
		"NullProbability": func(c *Config) { c.NullProbability = nan },
		"ZipfExponent":    func(c *Config) { c.Distribution = workload.Zipf; c.ZipfExponent = nan },
	} {
		c := TestScaleConfig(2)
		mut(&c)
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("NaN %s: got %v, want an error naming the field", field, err)
		}
	}
	// The hot-row cache composes with replicas, adaptive placement and hot-
	// table mirrors: one residency pass classifies all of them.
	composes := []struct {
		name string
		mut  func(*Config)
	}{
		{"cache+replicas", func(c *Config) { c.Replicas = 2 }},
		{"cache+placement", func(c *Config) { c.AdaptivePlacement = true; c.RebalanceEvery = 2 }},
		{"cache+placement+mirror", func(c *Config) { c.AdaptivePlacement = true; c.RebalanceEvery = 2; c.HotTables = 1 }},
	}
	for _, m := range composes {
		c := TestScaleConfig(2)
		c.CacheFraction = 1e-8
		m.mut(&c)
		if err := c.Validate(); err != nil {
			t.Errorf("%s rejected: %v", m.name, err)
		}
	}
}

func TestPaperConfigsValid(t *testing.T) {
	for gpus := 1; gpus <= 4; gpus++ {
		if err := WeakScalingConfig(gpus).Validate(); err != nil {
			t.Errorf("weak %d GPUs: %v", gpus, err)
		}
		if err := StrongScalingConfig(gpus).Validate(); err != nil {
			t.Errorf("strong %d GPUs: %v", gpus, err)
		}
	}
	w := WeakScalingConfig(4)
	if w.TotalTables != 256 || w.MaxPooling != 128 {
		t.Fatalf("weak config: %+v", w)
	}
	s := StrongScalingConfig(4)
	if s.TotalTables != 96 || s.MaxPooling != 32 {
		t.Fatalf("strong config: %+v", s)
	}
}

func TestNewSystemShardsTables(t *testing.T) {
	s, err := NewSystem(TestScaleConfig(3), DefaultHardware())
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for g := 0; g < 3; g++ {
		total += s.LocalTables(g)
	}
	if total != s.Cfg.TotalTables {
		t.Fatalf("shards cover %d of %d tables", total, s.Cfg.TotalTables)
	}
	// Minibatches tile the batch.
	end := 0
	for g := 0; g < 3; g++ {
		lo, hi := s.Minibatch(g)
		if lo != end {
			t.Fatalf("minibatch %d starts at %d, want %d", g, lo, end)
		}
		end = hi
	}
	if end != s.Cfg.BatchSize {
		t.Fatalf("minibatches cover %d of %d", end, s.Cfg.BatchSize)
	}
}

func TestNewSystemRejectsOversizedShard(t *testing.T) {
	cfg := TestScaleConfig(1)
	cfg.Functional = false
	cfg.Rows = 200_000_000 // 200M rows x 8 dims x 4B = 6.4 GB per table, 6 tables > 32 GB
	if _, err := NewSystem(cfg, DefaultHardware()); err == nil {
		t.Fatal("oversized shard accepted")
	}
}

func TestPaperMemoryFootprints(t *testing.T) {
	// The paper's strong-scaling config was chosen to max out a 32 GB V100:
	// it must fit on 1 GPU, and the weak config must fit per GPU.
	if _, err := NewSystem(StrongScalingConfig(1), DefaultHardware()); err != nil {
		t.Fatalf("strong scaling config must fit on one V100: %v", err)
	}
	if _, err := NewSystem(WeakScalingConfig(4), DefaultHardware()); err != nil {
		t.Fatalf("weak scaling config must fit: %v", err)
	}
}

// verifyBackend runs a backend functionally and compares the last batch's
// outputs with the serial reference.
func verifyBackend(t *testing.T, gpus int, b Backend) *Result {
	t.Helper()
	s, err := NewSystem(TestScaleConfig(gpus), DefaultHardware())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(b)
	if err != nil {
		t.Fatal(err)
	}
	want := mustReference(t, s, res.LastBatch)
	for g := 0; g < gpus; g++ {
		if !tensor.Equal(res.Final[g], want[g]) {
			t.Fatalf("%s: GPU %d output differs from reference (max diff %g)",
				b.Name(), g, tensor.MaxAbsDiff(res.Final[g], want[g]))
		}
	}
	return res
}

func TestBaselineMatchesReference(t *testing.T) {
	for gpus := 1; gpus <= 4; gpus++ {
		verifyBackend(t, gpus, &Baseline{})
	}
}

func TestPGASFusedMatchesReference(t *testing.T) {
	for gpus := 1; gpus <= 4; gpus++ {
		verifyBackend(t, gpus, &PGASFused{})
	}
}

func TestBaselineAndPGASIdenticalOutputs(t *testing.T) {
	// Beyond matching the reference, both backends must agree bit-exactly
	// with each other: same weights, same inputs, different communication.
	for gpus := 2; gpus <= 4; gpus++ {
		sb, err := NewSystem(TestScaleConfig(gpus), DefaultHardware())
		if err != nil {
			t.Fatal(err)
		}
		rb, err := sb.Run(&Baseline{})
		if err != nil {
			t.Fatal(err)
		}
		sp, err := NewSystem(TestScaleConfig(gpus), DefaultHardware())
		if err != nil {
			t.Fatal(err)
		}
		rp, err := sp.Run(&PGASFused{})
		if err != nil {
			t.Fatal(err)
		}
		for g := 0; g < gpus; g++ {
			if !tensor.Equal(rb.Final[g], rp.Final[g]) {
				t.Fatalf("%d GPUs: baseline and PGAS outputs differ on GPU %d", gpus, g)
			}
		}
	}
}

func TestAblationBackendsMatchReference(t *testing.T) {
	verifyBackend(t, 3, &Baseline{DirectPlacement: true})
	verifyBackend(t, 3, &PGASFused{StageRemote: true})
	verifyBackend(t, 3, &PGASFused{Aggregate: &AggregatorConfig{FlushBytes: 4096, MaxWait: sim.Millisecond}})
}

func TestResultBreakdownComponents(t *testing.T) {
	s, _ := NewSystem(TestScaleConfig(2), DefaultHardware())
	res, err := s.Run(&Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{CompComputation, CompComm, CompSyncUnpack} {
		if res.Breakdown.Get(name) <= 0 {
			t.Errorf("baseline breakdown missing %q", name)
		}
	}
	if res.TotalTime <= 0 {
		t.Fatal("TotalTime not positive")
	}

	s2, _ := NewSystem(TestScaleConfig(2), DefaultHardware())
	res2, err := s2.Run(&PGASFused{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Breakdown.Get(CompFused) <= 0 {
		t.Error("PGAS breakdown missing fused component")
	}
	if res2.Breakdown.Get(CompComm) != 0 {
		t.Error("PGAS should have no separate communication component")
	}
}

func TestSingleGPUNoCommunication(t *testing.T) {
	for _, b := range []Backend{&Baseline{}, &PGASFused{}} {
		cfg := TestScaleConfig(1)
		s, _ := NewSystem(cfg, DefaultHardware())
		res, err := s.Run(b)
		if err != nil {
			t.Fatal(err)
		}
		if res.CommTrace.Total() != 0 {
			t.Errorf("%s on 1 GPU communicated %v bytes", b.Name(), res.CommTrace.Total())
		}
		if res.Breakdown.Get(CompComm) != 0 {
			t.Errorf("%s on 1 GPU has communication time", b.Name())
		}
	}
}

func TestCommVolumeMatchesExpectation(t *testing.T) {
	// Every remote output vector crosses the wire exactly once, in both
	// schemes: (B - B/P) x F_local x vecBytes per GPU.
	cfg := TestScaleConfig(2)
	cfg.Batches = 1
	for _, b := range []Backend{&Baseline{}, &PGASFused{}} {
		s, _ := NewSystem(cfg, DefaultHardware())
		res, err := s.Run(b)
		if err != nil {
			t.Fatal(err)
		}
		var want float64
		for g := 0; g < cfg.GPUs; g++ {
			lo, hi := s.Minibatch(g)
			remote := cfg.BatchSize - (hi - lo)
			want += float64(remote * s.LocalTables(g) * cfg.VectorBytes())
		}
		if got := res.CommTrace.Total(); got != want {
			t.Errorf("%s: wire payload %v, want %v", b.Name(), got, want)
		}
	}
}

func TestTimingModeMatchesFunctionalTiming(t *testing.T) {
	// The same configuration must produce identical simulated times whether
	// or not the data plane is attached — the guarantee that lets paper-
	// scale runs skip the data.
	for _, mk := range []func() Backend{
		func() Backend { return &Baseline{} },
		func() Backend { return &PGASFused{} },
	} {
		cfg := TestScaleConfig(3)
		cfg.Functional = true
		sf, _ := NewSystem(cfg, DefaultHardware())
		rf, err := sf.Run(mk())
		if err != nil {
			t.Fatal(err)
		}
		cfg.Functional = false
		st, _ := NewSystem(cfg, DefaultHardware())
		rt, err := st.Run(mk())
		if err != nil {
			t.Fatal(err)
		}
		diff := rf.TotalTime - rt.TotalTime
		if diff < 0 {
			diff = -diff
		}
		if diff > 1e-9 {
			t.Errorf("%s: functional %v vs timing-only %v", rf.Backend, rf.TotalTime, rt.TotalTime)
		}
	}
}

func TestRunsAreDeterministic(t *testing.T) {
	run := func() sim.Duration {
		s, _ := NewSystem(TestScaleConfig(4), DefaultHardware())
		res, err := s.Run(&PGASFused{})
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalTime
	}
	first := run()
	for i := 0; i < 3; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d: %v != %v", i, got, first)
		}
	}
}

func TestScalesBeyondPaperTo8GPUs(t *testing.T) {
	// The paper stops at 4 GPUs (its testbed); the simulator extrapolates.
	// On a hypothetical fully-connected 8-GPU chassis the weak-scaling story
	// must continue: PGAS stays near-flat, baseline stays ~2x slower.
	cfg := WeakScalingConfig(8)
	cfg.Batches = 2
	sB, err := NewSystem(cfg, DefaultHardware())
	if err != nil {
		t.Fatal(err)
	}
	rB, err := sB.Run(&Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	sP, err := NewSystem(cfg, DefaultHardware())
	if err != nil {
		t.Fatal(err)
	}
	rP, err := sP.Run(&PGASFused{})
	if err != nil {
		t.Fatal(err)
	}
	speedup := rB.TotalTime / rP.TotalTime
	if speedup < 1.5 {
		t.Fatalf("8-GPU weak-scaling speedup %.2fx; trend should continue", speedup)
	}
}
