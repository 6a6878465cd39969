package retrieval

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"pgasemb/internal/sim"
	"pgasemb/internal/workload"
)

// naiveIndexTotal is the re-summing loop the route plan's prefix sums
// replaced, kept as the test oracle: the pooled indices of the given tables
// over samples [lo, hi), read straight off a materialised summary.
func naiveIndexTotal(sum *workload.Summary, tables []int, lo, hi int) int64 {
	var total int64
	for _, fid := range tables {
		for smp := lo; smp < hi; smp++ {
			total += int64(sum.PoolingFactor(fid, smp))
		}
	}
	return total
}

// naiveChunkHits re-sums shard o's hit vectors, and their pooled indices,
// over samples [lo, hi) from the residency bitmap (tables is o's placement).
func naiveChunkHits(sum *workload.Summary, plan *RoutePlan, tables []int, o, lo, hi int) (vecs int, idx int64) {
	for fi, fid := range tables {
		for smp := lo; smp < hi; smp++ {
			if plan.isHit(o, fi, smp) {
				vecs++
				idx += int64(sum.PoolingFactor(fid, smp))
			}
		}
	}
	return vecs, idx
}

// checkPlanPrefixes compares every pooled-index and hit query of a compiled
// functional plan with the naive re-sum: each owner over the whole batch and
// each consumer's minibatch, each chunk ∩ minibatch range the fused kernel asks for, the
// consumer-side hit totals per chunk, each pair's cache-missed vectors and
// indices, and seeded random ranges (empty and inverted ones included, which
// must sum to zero). tables is the placement the batch was compiled under.
func checkPlanPrefixes(t *testing.T, s *System, plan *RoutePlan, sum *workload.Summary, tables [][]int, rng *sim.RNG) {
	t.Helper()
	cfg := s.Cfg
	B, G := cfg.BatchSize, cfg.GPUs
	check := func(what string, o, lo, hi int) {
		t.Helper()
		if got, want := plan.localIndexTotal(o, lo, hi), naiveIndexTotal(sum, tables[o], lo, hi); got != want {
			t.Fatalf("%s: shard %d indices over [%d, %d) = %d, re-sum %d", what, o, lo, hi, got, want)
		}
		gv, gi := plan.OwnerChunkHits(o, lo, hi)
		if wv, wi := naiveChunkHits(sum, plan, tables[o], o, lo, hi); gv != wv || gi != wi {
			t.Fatalf("%s: shard %d hits over [%d, %d) = %d vecs/%d idx, re-sum %d/%d", what, o, lo, hi, gv, gi, wv, wi)
		}
	}
	for o := 0; o < G; o++ {
		if plan.pooledOf(o)[0] != 0 {
			t.Fatalf("shard %d index prefix starts at %d", o, plan.pooledOf(o)[0])
		}
		check("batch", o, 0, B)
		for c := 0; c < G; c++ {
			lo, hi := s.Minibatch(c)
			check("minibatch", o, lo, hi)
			hv, hidx := naiveChunkHits(sum, plan, tables[o], o, lo, hi)
			if got, want := plan.pairVecs(o, c), (hi-lo)*len(tables[o])-hv; got != want {
				t.Fatalf("pair %d->%d: %d cache-missed vectors, re-sum %d", o, c, got, want)
			}
			if got, want := plan.pairMissIdx(o, c), naiveIndexTotal(sum, tables[o], lo, hi)-hidx; got != want {
				t.Fatalf("pair %d->%d: %d cache-missed indices, re-sum %d", o, c, got, want)
			}
		}
	}
	chunks := cfg.ChunksPerKernel
	for k := 0; k < chunks; k++ {
		s0, s1 := B*k/chunks, B*(k+1)/chunks
		for c := 0; c < G; c++ {
			clo, chi := s.Minibatch(c)
			o0, o1 := clampRange(s0, s1, clo, chi)
			var wv int
			var wi int64
			for o := 0; o < G; o++ {
				check(fmt.Sprintf("chunk %d", k), o, o0, o1)
				if o != c {
					v, i := naiveChunkHits(sum, plan, tables[o], o, o0, o1)
					wv += v
					wi += i
				}
			}
			if gv, gi := plan.ConsumerChunkHits(c, s0, s1); gv != wv || gi != wi {
				t.Fatalf("chunk %d: consumer %d hits = %d vecs/%d idx, re-sum %d/%d", k, c, gv, gi, wv, wi)
			}
		}
	}
	all := make([]int, cfg.TotalTables)
	for fid := range all {
		all[fid] = fid
	}
	for n := 0; n < 64; n++ {
		lo, hi := rng.Intn(B+1), rng.Intn(B+1)
		if n%8 == 0 {
			hi = lo
		}
		for o := 0; o < G; o++ {
			check("random", o, lo, hi)
		}
		if got, want := ownersIndexTotal(plan, lo, hi), naiveIndexTotal(sum, all, lo, hi); got != want {
			t.Fatalf("global indices over [%d, %d) = %d, re-sum %d", lo, hi, got, want)
		}
	}
	if got, want := ownersIndexTotal(plan, 0, B), sum.TotalIndices(); got != want {
		t.Fatalf("global indices = %d, summary total %d", got, want)
	}
}

// ownersIndexTotal sums every owner's pooled-index total over samples
// [lo, hi): the owners partition the tables, so it is the batch-wide total.
func ownersIndexTotal(plan *RoutePlan, lo, hi int) int64 {
	var total int64
	for o := 0; o < plan.sys.Cfg.GPUs; o++ {
		total += plan.localIndexTotal(o, lo, hi)
	}
	return total
}

// TestRoutePlanPrefixesMatchResum pins the route plan's pooled-index and
// hit prefix sums against the naive re-sum over a materialised summary,
// across every layer that changes what a batch's prefixes hold: NULL-free
// and NULL-heavy uniform streams, Zipf with dedup, the hot-row cache, hot
// mirrors across a mid-run rebalance, replicas, a multi-node machine and a
// pipelined run. Each functional plan is checked query by query; its timing
// twin must compile identical prefixes without keeping the residency bitmap.
func TestRoutePlanPrefixesMatchResum(t *testing.T) {
	// Five and four-or-five tables per shard: the prefix builder's
	// four-row passes and its remainder both run.
	nullFree := TestScaleConfig(3)
	nullFree.TotalTables = 15
	nullFree.NullProbability = 0
	nullFree.MinPooling = 1
	cached := cacheTestConfig(3)
	cached.CacheFraction = 0.003
	mirrored := mirrorGateConfig()
	mirrored.AdaptivePlacement = true
	mirrored.RebalanceEvery = 2
	mirrored.HotTables = 1
	replicated := cached
	replicated.Replicas = 2
	multinode := clusterTestConfig(4)
	multinode.Dedup = true
	pipelined := cached
	pipelined.PipelineDepth = 2
	nullHeavy := TestScaleConfig(4)
	nullHeavy.TotalTables = 18
	nullHeavy.NullProbability = 0.5
	for _, c := range []struct {
		name string
		cfg  Config
		hw   HardwareParams
		// rebalanceAt is the batch before which both runs rebalance (0:
		// never); wantHits demands residency hits somewhere in the run.
		rebalanceAt int
		wantHits    bool
	}{
		{"uniform-null-free", nullFree, DefaultHardware(), 0, false},
		{"zipf-dedup", dedupTestConfig(3), DefaultHardware(), 0, false},
		{"cache", cached, cacheTestHardware(), 0, true},
		{"hot-mirror-rebalance", mirrored, DefaultHardware(), 2, true},
		{"replicas2+cache", replicated, cacheTestHardware(), 0, true},
		{"multinode-dedup", multinode, ClusterHardware(2), 0, false},
		{"depth2+cache", pipelined, cacheTestHardware(), 0, true},
		{"null-bags", nullHeavy, DefaultHardware(), 0, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			mk := func(functional bool) *System {
				cfg := c.cfg
				cfg.Functional = functional
				s, err := NewSystem(cfg, c.hw)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			fs, ts := mk(true), mk(false)
			gen, err := workload.NewGenerator(fs.Cfg.WorkloadConfig())
			if err != nil {
				t.Fatal(err)
			}
			rng := sim.NewRNG(c.cfg.Seed)
			var hits int64
			for i := 0; i < c.cfg.Batches; i++ {
				if i > 0 && i == c.rebalanceAt {
					for _, s := range []*System{fs, ts} {
						if _, err := s.rebalanceNow(); err != nil {
							t.Fatal(err)
						}
					}
					if !fs.hotMirrorActive() {
						t.Fatal("rebalance installed no mirror; the case is not exercising mirror hits")
					}
				}
				tables := make([][]int, len(fs.Plan))
				for g := range tables {
					tables[g] = slices.Clone(fs.Plan[g])
				}
				if !reflect.DeepEqual(tables, ts.Plan) {
					t.Fatalf("batch %d: functional and timing placements diverged", i)
				}
				fbd, err := fs.NextBatchData()
				if err != nil {
					t.Fatal(err)
				}
				tbd, err := ts.NextBatchData()
				if err != nil {
					t.Fatal(err)
				}
				checkPlanPrefixes(t, fs, fbd.Plan, gen.NextSummary(), tables, rng)
				if !reflect.DeepEqual(tbd.Plan.pooled, fbd.Plan.pooled) {
					t.Fatalf("batch %d: timing index prefixes differ from functional", i)
				}
				fp, tp := fbd.Plan, tbd.Plan
				if fp.resident != tp.resident {
					t.Fatalf("batch %d: residency ran in one mode only", i)
				}
				if !fp.resident {
					continue
				}
				if !reflect.DeepEqual(tp.hitVecs, fp.hitVecs) || !reflect.DeepEqual(tp.hitIdx, fp.hitIdx) {
					t.Fatalf("batch %d: timing hit prefixes differ from functional", i)
				}
				if tp.hit != nil {
					t.Fatalf("batch %d: timing plan keeps the residency bitmap", i)
				}
				for o := range fp.hitVecs {
					hits += fp.hitVecs[o][c.cfg.BatchSize]
				}
			}
			if c.wantHits && hits == 0 {
				t.Fatal("no residency hits; the case is not exercising the hit prefixes")
			}
		})
	}
}

// TestTimingBatchAllocatesNoPerBagArray pins the retained-memory contract of
// timing runs on a scaled-down weak-scaling shape: a warm NextBatchData
// draws one feature's pooling factors at a time into the run's plan, whose
// pooled-index prefixes (G×(B+1)×8 bytes) it rewrites in place. A batch that
// allocated a per-(table, sample) array again — one int32 per bag — fails
// here.
func TestTimingBatchAllocatesNoPerBagArray(t *testing.T) {
	cfg := WeakScalingConfig(4)
	cfg.TotalTables = 64
	cfg.BatchSize = 4096
	s, err := NewSystem(cfg, DefaultHardware())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.NextBatchData(); err != nil { // sizes the scratch row
		t.Fatal(err)
	}
	const n = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if _, err := s.NextBatchData(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perBatch := (after.TotalAlloc - before.TotalAlloc) / n
	perBag := uint64(cfg.TotalTables * cfg.BatchSize * 4)
	prefixes := uint64(cfg.GPUs * (cfg.BatchSize + 1) * 8)
	if perBatch >= perBag {
		t.Fatalf("warm timing NextBatchData allocates %d B, at least one per-bag int32 array (%d B); "+
			"the plan's prefixes need %d B", perBatch, perBag, prefixes)
	}
	t.Logf("%d B per warm timing batch (prefixes %d B, per-bag array %d B)", perBatch, prefixes, perBag)
}

// TestFirstTimingBatchAllocatesNoPerBagArray extends the contract to a
// run's first batch: a timing run never sizes a per-(table, sample) array,
// not even once, so a process that builds one run after another holds no
// such array between them. Without a pass that reads indices it draws
// pooling factors only; with dedup (on a 2-node cluster, so the node walk
// runs too) it draws one table's bags at a time, in plan order, and
// classifies them as they are drawn.
func TestFirstTimingBatchAllocatesNoPerBagArray(t *testing.T) {
	weak := WeakScalingConfig(4)
	weak.TotalTables = 64
	weak.BatchSize = 4096
	for _, c := range []struct {
		name string
		cfg  Config
		hw   HardwareParams
	}{
		{"pooling-only", weak, DefaultHardware()},
		{"dedup", MultiNodeConfig(2, 2), ClusterHardware(2)},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			s, err := NewSystem(cfg, c.hw)
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := s.NextBatchData(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			first := after.TotalAlloc - before.TotalAlloc
			perBag := uint64(cfg.TotalTables * cfg.BatchSize * 4)
			if first >= perBag {
				t.Fatalf("first timing NextBatchData allocates %d B, at least one per-bag int32 array (%d B)", first, perBag)
			}
			t.Logf("%d B for the first timing batch (per-bag array %d B)", first, perBag)
		})
	}
}
