package placement

import (
	"reflect"
	"testing"
)

func testConfig() Config {
	return Config{
		Tables:         8,
		GPUs:           4,
		TableBytes:     []int64{100, 100, 100, 100, 100, 100, 100, 100},
		RebalanceEvery: 2,
	}
}

// loadPricer is a test Pricer with one transport: a GPU's batch takes its
// owned tables' observed lookups at rate lookups per second, except that a
// mirrored table's other consumers read it locally for free, so its owner
// keeps only its own 1/GPUs share; migration sends bytes one after another
// at bandwidth bytes per second.
type loadPricer struct {
	gpus            int
	rate, bandwidth float64
	tableBytes      []int64
	load, out       []float64
}

func (p *loadPricer) Batch(st *Stats, owner []int, hot []bool) []float64 {
	if p.out == nil {
		p.load, p.out = make([]float64, p.gpus), make([]float64, 1)
	}
	load := p.load
	clear(load)
	for t, g := range owner {
		l := st.Loads()[t]
		if hot[t] {
			l /= float64(p.gpus)
		}
		load[g] += l
	}
	p.out[0] = 0
	for _, l := range load {
		p.out[0] = max(p.out[0], l/p.rate)
	}
	return p.out
}

func (p *loadPricer) Migration(owner []int, moves []Move, newMirrors []int) float64 {
	var bytes int64
	for _, m := range moves {
		bytes += p.tableBytes[m.Table]
	}
	for _, t := range newMirrors {
		bytes += p.tableBytes[t] * int64(p.gpus-1)
	}
	return float64(bytes) / p.bandwidth
}

// testPricer prices testConfig's layouts: a lookup takes a microsecond, and
// migration is cheap enough that any real saving pays for it.
func testPricer() *loadPricer {
	return &loadPricer{gpus: 4, rate: 1e6, bandwidth: 1e9, tableBytes: testConfig().TableBytes}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no tables", func(c *Config) { c.Tables = 0 }},
		{"no gpus", func(c *Config) { c.GPUs = 0 }},
		{"table bytes mismatch", func(c *Config) { c.TableBytes = c.TableBytes[:3] }},
		{"zero epoch", func(c *Config) { c.RebalanceEvery = 0 }},
		{"negative hot", func(c *Config) { c.HotTables = -1 }},
		{"all tables hot", func(c *Config) { c.HotTables = c.Tables }},
		{"non-positive table bytes", func(c *Config) { c.TableBytes[2] = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.TableBytes = append([]int64(nil), cfg.TableBytes...)
			tc.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatalf("expected a validation error")
			}
		})
	}
	if err := testConfig().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestStatsEMA(t *testing.T) {
	st := NewStats(testConfig())
	feed := func(loads []float64) {
		st.BeginBatch()
		for t, l := range loads {
			st.AddTable(t, l)
		}
		st.EndBatch()
	}
	feed([]float64{10, 0, 0, 0, 0, 0, 0, 0})
	if got := st.Loads()[0]; got != 10 {
		t.Fatalf("first batch must seed the EMA directly: got %g", got)
	}
	feed([]float64{20, 4, 0, 0, 0, 0, 0, 0})
	// alpha is 0.25: 10 + 0.25*(20-10) = 12.5; 0 + 0.25*4 = 1.
	if got := st.Loads()[0]; got != 12.5 {
		t.Fatalf("EMA after second batch: got %g, want 12.5", got)
	}
	if got := st.Loads()[1]; got != 1 {
		t.Fatalf("EMA after second batch: got %g, want 1", got)
	}
	if st.Batches() != 2 {
		t.Fatalf("Batches = %d, want 2", st.Batches())
	}
}

func TestLPTBalancesObservedSkew(t *testing.T) {
	// One scorching table plus seven cool ones: LPT must isolate the hot
	// table and spread the rest.
	loads := []float64{100, 1, 1, 1, 1, 1, 1, 1}
	bytes := testConfig().TableBytes
	plan, err := LPT(loads, bytes, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidatePlan(plan, 8, bytes, 0); err != nil {
		t.Fatal(err)
	}
	for g, shard := range plan {
		for _, tb := range shard {
			if tb == 0 && len(shard) != 1 {
				t.Fatalf("hot table shares GPU %d with %v", g, shard)
			}
		}
	}
}

func TestLPTRespectsCapacity(t *testing.T) {
	loads := []float64{5, 4, 3, 2}
	bytes := []int64{100, 100, 100, 100}
	// Capacity for exactly one table per GPU forces a perfect spread even
	// though load balance alone would pair the cold tables.
	plan, err := LPT(loads, bytes, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	for g, shard := range plan {
		if len(shard) != 1 {
			t.Fatalf("GPU %d holds %d tables under one-table capacity", g, len(shard))
		}
	}
	if _, err := LPT(loads, bytes, 2, 100); err == nil {
		t.Fatalf("4 tables cannot fit 2 GPUs at one table each; expected an error")
	}
}

func TestHotSet(t *testing.T) {
	loads := []float64{1, 9, 9, 3}
	if got := HotSet(loads, 2); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("HotSet = %v, want [1 2]", got)
	}
	// Ties break toward the lower id.
	if got := HotSet([]float64{5, 5, 5}, 2); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("tie-broken HotSet = %v, want [0 1]", got)
	}
	if got := HotSet(loads, 0); got != nil {
		t.Fatalf("HotSet(k=0) = %v, want nil", got)
	}
}

func TestMovesAndBytes(t *testing.T) {
	old := [][]int{{0, 1}, {2, 3}}
	new_ := [][]int{{0, 3}, {1, 2}}
	moves := Moves(old, new_)
	want := []Move{{Table: 1, From: 0, To: 1}, {Table: 3, From: 1, To: 0}}
	if !reflect.DeepEqual(moves, want) {
		t.Fatalf("Moves = %v, want %v", moves, want)
	}
	if got := MoveBytes(moves, []int64{10, 20, 30, 40}); got != 60 {
		t.Fatalf("MoveBytes = %d, want 60", got)
	}
	if got := Moves(old, old); len(got) != 0 {
		t.Fatalf("identity diff produced moves: %v", got)
	}
}

func TestControllerLifecycle(t *testing.T) {
	cfg := testConfig()
	cfg.HotTables = 1
	initial := [][]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}}
	c, err := NewController(cfg, testPricer(), initial)
	if err != nil {
		t.Fatal(err)
	}
	if c.Due(0) || c.Due(1) || !c.Due(2) || c.Due(3) || !c.Due(4) {
		t.Fatalf("Due must fire at positive multiples of RebalanceEvery")
	}

	// No observations yet: a rebalance is a no-op.
	rb, err := c.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if rb.Swapped || rb.Hot != nil {
		t.Fatalf("rebalance with no stats must be a no-op: %+v", rb)
	}

	// Feed a heavily skewed epoch: table 0 is the hottest, and tables 2 and
	// 3 — colocated on GPU 1 — carry the bulk of the rest. Moving one of
	// them off GPU 1, then mirroring table 0, each lowers the slowest GPU's
	// priced batch, so the search must separate them and mirror table 0.
	feed := func() {
		st := c.Stats()
		for batch := 0; batch < 2; batch++ {
			st.BeginBatch()
			st.AddTable(0, 100)
			st.AddTable(2, 90)
			st.AddTable(3, 80)
			for _, tb := range []int{1, 4, 5, 6, 7} {
				st.AddTable(tb, 1)
			}
			st.EndBatch()
		}
	}
	feed()
	rb, err = c.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if !rb.Swapped || len(rb.Moves) == 0 {
		t.Fatalf("a skew-concentrated plan must be rebalanced: %+v", rb)
	}
	if err := ValidatePlan(rb.Plan, cfg.Tables, cfg.TableBytes, cfg.CapacityBytes); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rb.Hot, []int{0}) {
		t.Fatalf("hot set = %v, want [0]", rb.Hot)
	}
	if !reflect.DeepEqual(rb.NewMirrors, []int{0}) || rb.MirrorBytes != 100*3 {
		t.Fatalf("table 0 must be newly mirrored to 3 GPUs: %+v", rb)
	}
	// Tables 2 and 3 must no longer share a GPU.
	for _, shard := range rb.Plan {
		has2, has3 := false, false
		for _, tb := range shard {
			has2 = has2 || tb == 2
			has3 = has3 || tb == 3
		}
		if has2 && has3 {
			t.Fatalf("heavy tables still colocated: %v", rb.Plan)
		}
	}
	if c.Rebalances() != 1 {
		t.Fatalf("Rebalances = %d, want 1", c.Rebalances())
	}

	// Same traffic again: no neighbour of the adopted layout is cheaper, so
	// the plan holds, and the already-installed mirror costs nothing new.
	feed()
	rb2, err := c.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if rb2.Swapped {
		t.Fatalf("steady traffic must not thrash the plan: %+v", rb2)
	}
	if len(rb2.NewMirrors) != 0 || rb2.MirrorBytes != 0 {
		t.Fatalf("unchanged hot set must not re-install mirrors: %+v", rb2)
	}
}

func TestControllerDeterminism(t *testing.T) {
	build := func() *Rebalance {
		cfg := testConfig()
		cfg.HotTables = 2
		c, err := NewController(cfg, testPricer(), [][]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}})
		if err != nil {
			t.Fatal(err)
		}
		st := c.Stats()
		for batch := 0; batch < 3; batch++ {
			st.BeginBatch()
			for tb := 0; tb < 8; tb++ {
				st.AddTable(tb, float64((tb*7+batch)%11))
			}
			st.EndBatch()
		}
		rb, err := c.Rebalance()
		if err != nil {
			t.Fatal(err)
		}
		return rb
	}
	a, b := build(), build()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical feeds diverged:\n%+v\n%+v", a, b)
	}
}

// A candidate must pay for its migration within the epoch: with the same
// skew but a fabric so slow that any move or mirror costs more than the
// epoch could save, the controller keeps the incumbent, mirrors nothing
// despite its budget, and reports no gain.
func TestControllerDeclinesUnpaidMigration(t *testing.T) {
	cfg := testConfig()
	cfg.HotTables = 2
	pr := testPricer()
	pr.bandwidth = 1e3 // 100 ms per table
	c, err := NewController(cfg, pr, [][]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}})
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	for batch := 0; batch < 2; batch++ {
		st.BeginBatch()
		for tb, l := range []float64{100, 1, 90, 80, 1, 1, 1, 1} {
			st.AddTable(tb, l)
		}
		st.EndBatch()
	}
	rb, err := c.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if rb.Swapped || rb.Hot != nil || rb.MoveBytes+rb.MirrorBytes != 0 || rb.Gain != 0 {
		t.Fatalf("an unpaid migration was adopted: %+v", rb)
	}
	// The same skew over a fast fabric pays: the decision follows the price.
	pr.bandwidth = 1e9
	if rb, err = c.Rebalance(); err != nil {
		t.Fatal(err)
	}
	if !rb.Swapped || rb.Gain <= 0 {
		t.Fatalf("a paying move was declined: %+v", rb)
	}
}

// Stats folds every (table, consumer) count as an EMA, except that a batch
// marking a table mirrored leaves its layout-dependent counts — cache hits,
// distinct rows — and its node counts at their averages.
func TestStatsPairCountsFoldAndFreeze(t *testing.T) {
	st := NewStats(testConfig())
	feed := func(x Counts, node float64, mirrored bool) {
		st.BeginBatch()
		*st.Open(3, 2) = x
		st.AddNodeUniq(3, 1, node)
		if mirrored {
			st.Mirrored(3)
		}
		st.EndBatch()
	}
	first := Counts{Refs: 40, Vecs: 8, Bags: 10, CacheVecs: 2, CacheIdx: 6, Uniq: 12}
	feed(first, 20, false)
	if got := st.Pair(3, 2); got != first || st.NodeUniq(3, 1) != 20 {
		t.Fatalf("first batch must seed the EMA directly: %+v, node %g", got, st.NodeUniq(3, 1))
	}
	feed(Counts{Refs: 80, Vecs: 8, Bags: 10}, 0, true)
	want := Counts{Refs: 50, Vecs: 8, Bags: 10, CacheVecs: 2, CacheIdx: 6, Uniq: 12}
	if got := st.Pair(3, 2); got != want || st.NodeUniq(3, 1) != 20 {
		t.Fatalf("mirrored batch: %+v, node %g; want %+v, node 20", got, st.NodeUniq(3, 1), want)
	}
	feed(Counts{Refs: 50, Vecs: 8, Bags: 10, CacheVecs: 6, CacheIdx: 10, Uniq: 16}, 24, false)
	want = Counts{Refs: 50, Vecs: 8, Bags: 10, CacheVecs: 3, CacheIdx: 7, Uniq: 13}
	if got := st.Pair(3, 2); got != want || st.NodeUniq(3, 1) != 21 {
		t.Fatalf("unmirrored batch: %+v, node %g; want %+v, node 21", got, st.NodeUniq(3, 1), want)
	}
	if got := st.Pair(2, 2); got != (Counts{}) {
		t.Fatalf("an unfed pair holds %+v", got)
	}
}

// BenchmarkRebalance measures one epoch decision on a 32-table, 4-GPU
// machine with a two-table mirror budget: the descent over every single-table
// move and mirror prefix, priced by a one-transport test pricer.
func BenchmarkRebalance(b *testing.B) {
	cfg := Config{Tables: 32, GPUs: 4, TableBytes: make([]int64, 32), RebalanceEvery: 8, HotTables: 2}
	initial := make([][]int, cfg.GPUs)
	for tb := range cfg.TableBytes {
		cfg.TableBytes[tb] = 1 << 20
		initial[tb/8] = append(initial[tb/8], tb)
	}
	pr := &loadPricer{gpus: cfg.GPUs, rate: 1e6, bandwidth: 1e12, tableBytes: cfg.TableBytes}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := NewController(cfg, pr, initial)
		if err != nil {
			b.Fatal(err)
		}
		st := c.Stats()
		st.BeginBatch()
		for tb := range cfg.TableBytes {
			st.AddTable(tb, float64(int(64)>>min(tb/2, 6)+4))
		}
		st.EndBatch()
		b.StartTimer()
		if _, err := c.Rebalance(); err != nil {
			b.Fatal(err)
		}
	}
}
