package retrieval

import (
	"fmt"
	"maps"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"pgasemb/internal/sim"
	"pgasemb/internal/tensor"
	"pgasemb/internal/trace"
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
	if cfg.Rows&(cfg.Rows-1) != 0 {
		parts = append(parts, fmt.Sprintf("rows%d", cfg.Rows))
	}
	if c.nodes > 1 {
		parts = append(parts, fmt.Sprintf("%dnodes", c.nodes))
	}
	if cfg.Distribution == workload.Zipf {
		parts = append(parts, fmt.Sprintf("zipf%g", cfg.ZipfExponent))
	}
	if cfg.NullProbability > 0 {
		parts = append(parts, fmt.Sprintf("nulls%g", cfg.NullProbability))
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

// choices is generateConfig's source of draws.
type choices interface {
	// IntN draws the named knob's value in [0, n). 0 is the knob's off or
	// minimum value.
	IntN(knob string, n int) int
}

// randChoices draws every knob from a seeded generator.
type randChoices struct{ r *rand.Rand }

func (c randChoices) IntN(_ string, n int) int { return c.r.IntN(n) }

// byteChoices draws knobs from a fuzz input: a draw of n values reads
// drawBytes(n) bytes, big-endian, modulo n. A missing byte reads as 0, so a
// short input leaves the remaining knobs off, and Go's minimiser shrinks a
// failing input toward a minimal configuration.
type byteChoices struct{ b []byte }

func (c *byteChoices) IntN(_ string, n int) int {
	var v uint64
	for range drawBytes(n) {
		v <<= 8
		if len(c.b) > 0 {
			v |= uint64(c.b[0])
			c.b = c.b[1:]
		}
	}
	return int(v % uint64(n))
}

// drawBytes returns the fewest bytes that cover n values.
func drawBytes(n int) int {
	k := 0
	for span := n - 1; span > 0; span >>= 8 {
		k++
	}
	return k
}

// speller records the input from which byteChoices draws knobs' values and
// 0 for every other knob: it spells FuzzConfig's seed corpus.
type speller struct {
	knobs map[string]int
	out   []byte
}

func (s *speller) IntN(knob string, n int) int {
	v := s.knobs[knob] % n
	for shift := 8 * (drawBytes(n) - 1); shift >= 0; shift -= 8 {
		s.out = append(s.out, byte(v>>shift))
	}
	return v
}

// spell returns the fuzz input that draws knobs' values, and 0 for every
// knob it does not name.
func spell(knobs map[string]int) []byte {
	s := &speller{knobs: knobs}
	generateConfig(s)
	return s.out
}

// on reports whether the named feature is drawn on, one time in n.
func on(c choices, knob string, n int) bool { return c.IntN(knob, n) == n-1 }

// generateConfig draws one functional test-scale configuration from c. Every
// feature is drawn independently, so some combinations are ones Validate
// refuses (replicas beside dedup or placement, more replicas than GPUs,
// every table mirrored hot); those cases check the refusal instead. The node
// count always divides the GPU count: an uneven machine is a hardware error,
// not a Config one. Row counts are powers of two (hashed by a mask) half the
// time and other sizes (hashed by division) the other half.
func generateConfig(c choices) genCase {
	gpus := 1 + c.IntN("gpus", 4)
	tables := gpus + c.IntN("tables", 6)
	cfg := Config{
		GPUs:            gpus,
		TotalTables:     tables,
		Rows:            []int{16, 32, 64, 128, 17, 24, 100, 400}[c.IntN("rows", 8)],
		Dim:             4 << c.IntN("dim", 2),
		BatchSize:       gpus * (4 + c.IntN("batch", 12)),
		MinPooling:      c.IntN("min-pooling", 2),
		MaxPooling:      2 + c.IntN("max-pooling", 6),
		Batches:         2 + c.IntN("batches", 4),
		Seed:            uint64(c.IntN("seed", 1<<30)),
		ChunksPerKernel: 1 + c.IntN("chunks", 4),
		Functional:      true,
		GreedyPlan:      on(c, "greedy", 2),
		NullProbability: []float64{0, 0.1, 0.4}[c.IntN("nulls", 3)],
		Dedup:           on(c, "dedup", 2),
		CacheFraction:   []float64{0, 0, 1e-9, 1e-8, 1e-7}[c.IntN("cache", 5)],
		WirePrecision:   []Precision{FP32, FP16, Int8}[c.IntN("wire", 3)],
		PipelineDepth:   1 + c.IntN("depth", 3),
	}
	if on(c, "zipf", 2) {
		cfg.Distribution = workload.Zipf
		cfg.ZipfExponent = []float64{0.9, 1.05, 1.2}[c.IntN("zipf-exponent", 3)]
	}
	if on(c, "per-feature", 3) {
		cfg.PerFeatureMaxPooling = make([]int, tables)
		for f := range cfg.PerFeatureMaxPooling {
			cfg.PerFeatureMaxPooling[f] = c.IntN("feature-pooling", 13)
		}
	}
	if on(c, "replicas", 3) {
		cfg.Replicas = 2 + c.IntN("replica-count", gpus)
	}
	if on(c, "placement", 3) {
		cfg.AdaptivePlacement = true
		cfg.RebalanceEvery = 1 + c.IntN("rebalance-every", 3)
		cfg.HotTables = c.IntN("hot-tables", 3)
	}
	nodes := 1
	if gpus%2 == 0 && on(c, "nodes", 2) {
		nodes = 2
	}
	return genCase{cfg: cfg, nodes: nodes}
}

// TestGeneratedConfigs extends the registry gate from the hand-enumerated
// grids to seeded random configurations, each run by every registered
// backend (see checkCase).
func TestGeneratedConfigs(t *testing.T) {
	r := randChoices{rand.New(rand.NewPCG(2024, 39))}
	for i := 0; i < genConfigs; i++ {
		c := generateConfig(r)
		for _, name := range RegisteredBackends() {
			t.Run(fmt.Sprintf("%02d-%s/%s", i, c.label(), name), func(t *testing.T) {
				checkCase(t, c, name)
			})
		}
	}
}

// FuzzConfig runs the generated-config checks on configurations drawn from
// the fuzz input (see byteChoices). The seed corpus is the minimal
// configuration, then each feature on alone over the largest machine shape.
func FuzzConfig(f *testing.F) {
	largest := map[string]int{"gpus": 3, "tables": 5, "batch": 11, "max-pooling": 5, "batches": 3}
	with := func(knobs map[string]int) map[string]int {
		m := maps.Clone(largest)
		maps.Copy(m, knobs)
		return m
	}
	f.Add([]byte{})
	f.Add(spell(largest))
	for _, knobs := range []map[string]int{
		{"rows": 6},
		{"greedy": 1, "per-feature": 2, "feature-pooling": 12},
		{"nulls": 2, "min-pooling": 1},
		{"dedup": 1},
		{"cache": 4},
		{"wire": 1},
		{"wire": 2},
		{"depth": 2},
		{"mean": 1},
		{"zipf": 1, "zipf-exponent": 2},
		{"replicas": 2, "replica-count": 1},
		{"placement": 2, "rebalance-every": 0, "hot-tables": 2},
		{"nodes": 1},
		{"nodes": 1, "dedup": 1, "zipf": 1, "wire": 1, "cache": 4},
	} {
		f.Add(spell(with(knobs)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := generateConfig(&byteChoices{data})
		for _, name := range RegisteredBackends() {
			t.Run(c.label()+"/"+name, func(t *testing.T) { checkCase(t, c, name) })
		}
	})
}

// checkCase holds one generated case to the registry gate on one backend. A
// configuration Validate accepts must run to completion, match the serial
// Reference byte for byte, land its timing-only run on the functional run's
// simulated time, give the same outputs pipelined as serially, and price
// every batch's gather the same whole as in chunks (chunkChecked). One
// Validate refuses must come back as a setup error, never a panic.
func checkCase(t *testing.T, c genCase, name string) {
	if c.cfg.Validate() != nil {
		if _, err := genRun(t, c, name, true, 1); err == nil {
			t.Fatal("Validate refuses the config but the run set up without error")
		}
		return
	}
	checkGenerated(t, c, name)
}

// checkGenerated runs an accepted configuration functionally and timing-only,
// serially and at the configuration's pipeline depth (or 2 when it asks for
// none), and checks the registry gate's invariants on every run. An EMB-only
// run ignores the depth, so the deeper runs' outputs, totals and per-GPU
// breakdowns must equal the depth-1 runs' exactly.
func checkGenerated(t *testing.T, c genCase, name string) {
	depth := max(c.cfg.PipelineDepth, 2)
	var fSerial, tSerial *Result
	for _, d := range []int{1, depth} {
		fRes, err := genRun(t, c, name, true, d)
		if err != nil {
			t.Fatalf("depth %d: accepted config failed: %v", d, err)
		}
		tRes, err := genRun(t, c, name, false, d)
		if err != nil {
			t.Fatalf("depth %d: accepted timing config failed: %v", d, err)
		}
		if fRes.TotalTime != tRes.TotalTime {
			t.Errorf("depth %d: functional total %g != timing total %g", d, fRes.TotalTime, tRes.TotalTime)
		}
		if d == 1 {
			fSerial, tSerial = fRes, tRes
			continue
		}
		for g := range fRes.Final {
			if !tensor.Equal(fRes.Final[g], fSerial.Final[g]) {
				t.Fatalf("depth %d: GPU %d differs from the depth-1 run (max diff %g)",
					d, g, tensor.MaxAbsDiff(fRes.Final[g], fSerial.Final[g]))
			}
		}
		sameTimes(t, fRes, fSerial)
		sameTimes(t, tRes, tSerial)
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
	if res, err = s.Run(chunkChecked{be, t}); err != nil {
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

// chunkChecked runs a backend after checking, on every GPU of every batch and
// under both route rules, that the gather traffic of the whole batch equals
// the sum over the fused kernel's ChunksPerKernel sample ranges: items and
// remote items exactly, read and streamed bytes within 1e-12 relative (float
// addition is not associative). The one-sided whole batch's items are also
// pgas-fused's kernel occupancy (fusedKernelItems). It reports with Errorf
// only, since backends run on simulated-process goroutines.
type chunkChecked struct {
	Backend
	t *testing.T
}

func (b chunkChecked) RunBatch(s *System, p *sim.Proc, g int, bd *BatchData, bk *trace.Breakdown) {
	plan := bd.Plan
	B, chunks := s.Cfg.BatchSize, s.Cfg.ChunksPerKernel
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b)) }
	for _, oneSided := range []bool{false, true} {
		class := plan.CollectiveClass
		if oneSided {
			class = plan.Class
		}
		var whole, sum gatherTraffic
		whole.addPairs(s, g, plan, 0, B, class, nil)
		whole.addHits(s, g, plan, 0, B)
		for k := 0; k < chunks; k++ {
			s0, s1 := B*k/chunks, B*(k+1)/chunks
			sum.addPairs(s, g, plan, s0, s1, class, nil)
			sum.addHits(s, g, plan, s0, s1)
		}
		if whole.items != sum.items || whole.remote != sum.remote ||
			!near(whole.read, sum.read) || !near(whole.stream, sum.stream) {
			b.t.Errorf("GPU %d: whole-batch gather %+v, sum of %d chunks %+v", g, whole, chunks, sum)
		}
		if items := plan.fusedKernelItems(g); oneSided && items != whole.items {
			b.t.Errorf("GPU %d: fused kernel items %d, whole-batch gather items %d", g, items, whole.items)
		}
	}
	b.Backend.RunBatch(s, p, g, bd, bk)
}
