package retrieval

import (
	"fmt"
	"slices"
	"testing"

	"pgasemb/internal/embedding"
	"pgasemb/internal/metrics"
	"pgasemb/internal/sim"
)

// dedupOracle is one batch's dedup classification recomputed by a plain
// map-based walk in sample-major order: for each owner and consumer, the
// consumer's samples ascending, the owner's tables in plan order, bag order.
type dedupOracle struct {
	miss, uniq, dense [][]int64
	wire, gather      [][]bool
	newAt             [][][]int32
	// refs[src][dst] lists the pair's miss references' keys table-major —
	// the order the expansion maps follow.
	refs                [][][]uint64
	nodeUniq, nodeDense [][]int64
	nodeWire            [][]bool
	nodeNewAt           [][][]int32
	ctr                 metrics.DedupCounters
}

// classifyOracle recomputes the dedup classification of functional batch bd.
func classifyOracle(s *System, bd *BatchData) *dedupOracle {
	cfg := s.Cfg
	G := cfg.GPUs
	grid := func() [][]int64 {
		m := make([][]int64, G)
		for i := range m {
			m[i] = make([]int64, G)
		}
		return m
	}
	flags := func() [][]bool {
		m := make([][]bool, G)
		for i := range m {
			m[i] = make([]bool, G)
		}
		return m
	}
	o := &dedupOracle{
		miss: grid(), uniq: grid(), dense: grid(), wire: flags(), gather: flags(),
		newAt: make([][][]int32, G), refs: make([][][]uint64, G),
		ctr: metrics.DedupCounters{Batches: 1},
	}
	hit := func(src, dst, fi, smp int) bool {
		return src != dst && bd.Plan.isHit(src, fi, smp)
	}
	key := func(src, fi int, raw int64) uint64 {
		row := embedding.HashIndex(raw, cfg.Rows)
		return uint64(fi)<<32 | uint64(row)
	}
	bag := func(src, fi, smp int) []int64 { return bd.Sparse.FeatureByID(s.Plan[src][fi]).Bag(smp) }
	wvb := float64(cfg.WireVectorBytes())
	for src := 0; src < G; src++ {
		o.newAt[src] = make([][]int32, G)
		o.refs[src] = make([][]uint64, G)
		for dst := 0; dst < G; dst++ {
			lo, hi := s.Minibatch(dst)
			seen := map[uint64]bool{}
			newAt := make([]int32, hi-lo)
			for smp := lo; smp < hi; smp++ {
				for fi := range s.Plan[src] {
					if hit(src, dst, fi, smp) {
						continue
					}
					o.dense[src][dst]++
					for _, raw := range bag(src, fi, smp) {
						o.miss[src][dst]++
						if k := key(src, fi, raw); !seen[k] {
							seen[k] = true
							newAt[smp-lo]++
						}
					}
				}
			}
			for fi := range s.Plan[src] {
				for smp := lo; smp < hi; smp++ {
					if hit(src, dst, fi, smp) {
						continue
					}
					for _, raw := range bag(src, fi, smp) {
						o.refs[src][dst] = append(o.refs[src][dst], key(src, fi, raw))
					}
				}
			}
			o.uniq[src][dst], o.newAt[src][dst] = int64(len(seen)), newAt
		}
	}
	if s.multiNode() {
		N, per := s.cluster.Nodes, s.cluster.GPUsPerNode
		o.nodeUniq, o.nodeDense = make([][]int64, G), make([][]int64, G)
		o.nodeWire, o.nodeNewAt = make([][]bool, G), make([][][]int32, G)
		for src := 0; src < G; src++ {
			o.nodeUniq[src], o.nodeDense[src] = make([]int64, N), make([]int64, N)
			o.nodeWire[src], o.nodeNewAt[src] = make([]bool, N), make([][]int32, N)
			for node := 0; node < N; node++ {
				if node == s.nodeOf(src) {
					continue
				}
				nlo, nhi := s.nodeSampleRange(node)
				seen := map[uint64]bool{}
				newAt := make([]int32, nhi-nlo)
				for dst := node * per; dst < (node+1)*per; dst++ {
					o.nodeDense[src][node] += o.dense[src][dst]
					lo, hi := s.Minibatch(dst)
					for smp := lo; smp < hi; smp++ {
						for fi := range s.Plan[src] {
							if hit(src, dst, fi, smp) {
								continue
							}
							for _, raw := range bag(src, fi, smp) {
								if k := key(src, fi, raw); !seen[k] {
									seen[k] = true
									newAt[smp-nlo]++
								}
							}
						}
					}
				}
				o.nodeUniq[src][node], o.nodeNewAt[src][node] = int64(len(seen)), newAt
			}
		}
	}
	vb := float64(cfg.VectorBytes())
	for src := 0; src < G; src++ {
		// The owner's own cache and mirror hits, as a consumer, set part of
		// its gather kernel's occupancy.
		var hitVecs, hitIdx int64
		lo, hi := s.Minibatch(src)
		for own := 0; own < G; own++ {
			for fi := range s.Plan[own] {
				for smp := lo; smp < hi; smp++ {
					if hit(own, src, fi, smp) {
						hitVecs++
						hitIdx += int64(len(bag(own, fi, smp)))
					}
				}
			}
		}
		wins := make([]bool, G)
		for dst := range wins {
			wins[dst] = gatherDedupWins(&s.HW.GPU, o.uniq[src][dst], o.miss[src][dst], o.dense[src][dst], vb)
		}
		o.decide(s, src, wins, hitVecs, hitIdx)
		for dst := 0; dst < G; dst++ {
			uniq, dense, miss, wire := o.uniq[src][dst], o.dense[src][dst], o.miss[src][dst], o.wire[src][dst]
			o.gather[src][dst] = !wire && wins[dst]
			if src != dst {
				o.ctr.EligibleIdx += miss
				o.ctr.EligibleVecs += dense
				o.ctr.UniqueRows += uniq
				if wire {
					o.ctr.WireRows += uniq
					o.ctr.WireSavedBytes += float64(dense-uniq) * wvb
				} else {
					o.ctr.WireVecs += dense
				}
			}
		}
	}
	return o
}

// decide recomputes owner src's priced routes the slow way: from all-dense,
// in consumer order, each remote node at its first consumer (under the
// one-sided rule) and each remote pair (under the pair rule) flips when the
// owner's batch, repriced from scratch over every one of its routes, gets
// cheaper. wins[dst] is pair (src, dst)'s gather-dedup decision; hitVecs and
// hitIdx count the owner's own cache and mirror hits.
func (o *dedupOracle) decide(s *System, src int, wins []bool, hitVecs, hitIdx int64) {
	G := s.Cfg.GPUs
	vb := int64(s.Cfg.VectorBytes())
	price := func(oneSided bool) sim.Duration {
		sum := routeTerms{hot: hitIdx * vb, stream: hitIdx*8 + hitVecs*vb, items: hitVecs}
		links := map[int]int64{} // wire vectors per owner link, named by its first consumer
		for dst := 0; dst < G; dst++ {
			cls, uniq := RouteDense, o.uniq[src][dst]
			switch node := s.nodeOf(dst); {
			case dst == src:
				cls = RouteLocal
			case oneSided && o.nodeWire != nil && o.nodeWire[src][node]:
				cls, uniq = RouteNodeWire, 0
				if dst == s.stageGPU(src, node) {
					uniq = o.nodeUniq[src][node]
				}
			case o.wire[src][dst]:
				cls = RouteWire
			}
			t := s.routeTermsOf(cls, o.miss[src][dst], o.dense[src][dst], uniq, wins[dst])
			sum = sum.plus(t)
			sum.stream += o.miss[src][dst] * 8
			link := dst // a pair on the owner's node has its own NVLink links
			if s.nodeOf(dst) != s.nodeOf(src) {
				link = s.nodeOf(dst) * s.cluster.GPUsPerNode // a remote node's pairs share one NIC send
			}
			links[link] += t.remote
		}
		var slowest sim.Duration
		for link, items := range links {
			slowest = max(slowest, s.wireTime(src, link, items))
		}
		return s.batchPrice(sum, slowest)
	}
	try := func(flag *bool, oneSided bool) {
		base := price(oneSided)
		*flag = true
		*flag = price(oneSided) < base
	}
	for dst := 0; dst < G; dst++ {
		if dst == src {
			continue
		}
		if node := s.nodeOf(dst); node != s.nodeOf(src) && dst == node*s.cluster.GPUsPerNode {
			try(&o.nodeWire[src][node], true)
		}
		try(&o.wire[src][dst], false)
	}
}

// checkKeys checks one functional key list and the expansion maps into it:
// the list holds uniq distinct keys, and every map resolves each reference of
// its consumer (table-major) to that reference's key.
func checkKeys(t *testing.T, what string, keys []uint64, uniq int64, expands [][]int32, refs [][]uint64) {
	t.Helper()
	if int64(len(keys)) != uniq {
		t.Fatalf("%s: %d keys, want %d", what, len(keys), uniq)
	}
	seen := map[uint64]bool{}
	for _, k := range keys {
		if seen[k] {
			t.Fatalf("%s: key %#x listed twice", what, k)
		}
		seen[k] = true
	}
	for i, exp := range expands {
		if len(exp) != len(refs[i]) {
			t.Fatalf("%s: consumer %d expansion has %d entries, want %d", what, i, len(exp), len(refs[i]))
		}
		for e, p := range exp {
			if keys[p] != refs[i][e] {
				t.Fatalf("%s: consumer %d reference %d expands to %#x, want %#x", what, i, e, keys[p], refs[i][e])
			}
		}
	}
}

// checkAgainstOracle compares every count and flag of the plan's pair and
// node records with the oracle — the miss and dense counts through the
// plan's prefix-sum arithmetic — and on functional plans every key list and
// expansion map; a timing plan keeps none.
func checkAgainstOracle(t *testing.T, s *System, plan *RoutePlan, o *dedupOracle) {
	t.Helper()
	G := s.Cfg.GPUs
	fn := s.Cfg.Functional
	for src := 0; src < G; src++ {
		for dst := 0; dst < G; dst++ {
			pair := fmt.Sprintf("pair %d->%d", src, dst)
			a := plan.pair(src, dst)
			miss, dense := plan.pairMissIdx(src, dst), int64(plan.pairVecs(src, dst))
			if miss != o.miss[src][dst] || a.uniq != o.uniq[src][dst] || dense != o.dense[src][dst] {
				t.Fatalf("%s: miss/uniq/dense %d/%d/%d, oracle %d/%d/%d", pair,
					miss, a.uniq, dense, o.miss[src][dst], o.uniq[src][dst], o.dense[src][dst])
			}
			if a.miss != miss || a.dense != dense {
				t.Fatalf("%s: the walk summed miss/dense %d/%d, the plan's prefixes %d/%d", pair, a.miss, a.dense, miss, dense)
			}
			if a.wire != o.wire[src][dst] || a.gather != o.gather[src][dst] {
				t.Fatalf("%s: wire/gather %v/%v, oracle %v/%v", pair,
					a.wire, a.gather, o.wire[src][dst], o.gather[src][dst])
			}
			if !slices.Equal(a.newAt, o.newAt[src][dst]) {
				t.Fatalf("%s: newAt %v, oracle %v", pair, a.newAt, o.newAt[src][dst])
			}
			if fn {
				checkKeys(t, pair, a.keys, o.uniq[src][dst], [][]int32{a.expand}, [][]uint64{o.refs[src][dst]})
			} else if len(a.keys) != 0 || len(a.expand) != 0 {
				t.Fatalf("%s: a timing plan keeps a key list or expansion map", pair)
			}
		}
	}
	if !s.multiNode() {
		for src := 0; src < G; src++ {
			if na := plan.node(src, 0); na.uniq != 0 || na.wire || len(na.newAt) != 0 || len(na.keys) != 0 {
				t.Fatal("single-node plan carries a node-level classification")
			}
		}
		return
	}
	per := s.cluster.GPUsPerNode
	for src := 0; src < G; src++ {
		for node := 0; node < s.cluster.Nodes; node++ {
			at := fmt.Sprintf("owner %d -> node %d", src, node)
			na := plan.node(src, node)
			var nodeDense int64 // the owner's own node has no node-level route
			for dst := node * per; dst < (node+1)*per && node != s.nodeOf(src); dst++ {
				nodeDense += int64(plan.pairVecs(src, dst))
			}
			if na.uniq != o.nodeUniq[src][node] || nodeDense != o.nodeDense[src][node] ||
				na.wire != o.nodeWire[src][node] {
				t.Fatalf("%s: uniq/dense/wire %d/%d/%v, oracle %d/%d/%v", at,
					na.uniq, nodeDense, na.wire,
					o.nodeUniq[src][node], o.nodeDense[src][node], o.nodeWire[src][node])
			}
			if !slices.Equal(na.newAt, o.nodeNewAt[src][node]) {
				t.Fatalf("%s: newAt %v, oracle %v", at, na.newAt, o.nodeNewAt[src][node])
			}
			var consumers [][]int32
			for dst := node * per; dst < (node+1)*per; dst++ {
				consumers = append(consumers, plan.pair(src, dst).nodeExpand)
			}
			if fn && node != s.nodeOf(src) {
				checkKeys(t, at, na.keys, o.nodeUniq[src][node],
					consumers, o.refs[src][node*per:(node+1)*per])
				continue
			}
			if len(na.keys) != 0 || slices.ContainsFunc(consumers, func(e []int32) bool { return len(e) != 0 }) {
				t.Fatalf("%s: keeps a node key list or expansion map on a timing plan or the owner's own node", at)
			}
		}
	}
}

// TestClassifyDedupMatchesOracle holds the table-major dedup walk to a
// sample-major map-based recomputation on every batch of several shapes, in
// timing and functional runs. A timing run keeps neither its batch nor its
// residency bitmap, so each shape runs twice from the same seed: the
// functional twin's batch feeds the oracle, and both views must match it.
// Both runs step the tables in plan order; the functional run reads them
// from its materialised batch, the timing run draws each as the walk
// reaches it (Generator.Feature). The shapes cover one node and several,
// one GPU (diagonal gather dedup only), row counts that are not a power of
// two (hashed by division, not a mask), a plan whose order is not the
// feature order, alone and with a cache (the one shape where the order the
// timing run seeks its tables in decides what each cache holds), a drifting
// hot set, and adaptive placement whose mirrored table skips vectors in the
// walk (rebalanced between batches, as a run does at its epoch
// boundaries).
func TestClassifyDedupMatchesOracle(t *testing.T) {
	cases := []struct {
		name string
		hw   HardwareParams
		tune func(*Config)
	}{
		{"flat4", DefaultHardware(), func(*Config) {}},
		{"cluster2", ClusterHardware(2), func(*Config) {}},
		{"cache", cacheTestHardware(), func(c *Config) { c.CacheFraction = 0.003 }},
		{"rows400", DefaultHardware(), func(c *Config) { c.Rows = 400 }},
		{"nulls", DefaultHardware(), func(c *Config) { c.NullProbability = 0.4 }},
		{"cluster2-cache-rows1000-nulls", func() HardwareParams {
			hw := cacheTestHardware()
			hw.Nodes = 2
			return hw
		}(), func(c *Config) {
			c.CacheFraction = 0.003
			c.Rows = 1000
			c.NullProbability = 0.4
		}},
		{"cluster4", ClusterHardware(4), func(c *Config) {
			c.GPUs, c.TotalTables, c.BatchSize = 8, 16, 64
		}},
		{"one-gpu", DefaultHardware(), func(c *Config) { c.GPUs = 1 }},
		{"greedy-plan", DefaultHardware(), func(c *Config) {
			c.GreedyPlan = true
			c.PerFeatureMaxPooling = []int{2, 9, 3, 7, 5, 8}
		}},
		{"greedy-plan+cache", cacheTestHardware(), func(c *Config) {
			c.GreedyPlan = true
			c.PerFeatureMaxPooling = []int{2, 9, 3, 7, 5, 8}
			c.CacheFraction = 0.003
		}},
		{"drift", DefaultHardware(), func(c *Config) { c.HotSetDriftEvery = 2 }},
		// One dominant table, at a batch large enough that mirroring it
		// pays for its install under dedup, so the controller mirrors it.
		{"placement-mirror", DefaultHardware(), func(c *Config) {
			c.PerFeatureMaxPooling = []int{32, 8, 8, 3, 3, 3}
			c.BatchSize = 512
			c.AdaptivePlacement = true
			c.HotTables = 1
			c.RebalanceEvery = 2
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			newSys := func(functional bool) *System {
				cfg := dedupTestConfig(4)
				tc.tune(&cfg)
				cfg.Functional = functional
				s, err := NewSystem(cfg, tc.hw)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			fs, ts := newSys(true), newSys(false)
			if fs.Cfg.GreedyPlan && slices.IsSorted(slices.Concat(fs.Plan...)) {
				t.Fatalf("plan %v walks the tables in feature order; seeking a table out of order goes unchecked", fs.Plan)
			}
			want := metrics.DedupCounters{}
			var wires, nodeWires, gathers, mirrored int
			for b := 0; b < fs.Cfg.Batches; b++ {
				fbd, err := fs.NextBatchData()
				if err != nil {
					t.Fatal(err)
				}
				tbd, err := ts.NextBatchData()
				if err != nil {
					t.Fatal(err)
				}
				if fs.hotMirrorActive() {
					mirrored++
				}
				o := classifyOracle(fs, fbd)
				want = want.Add(o.ctr)
				for _, run := range []struct {
					s  *System
					bd *BatchData
				}{{fs, fbd}, {ts, tbd}} {
					t.Run(fmt.Sprintf("batch%d/functional=%v", b, run.s.Cfg.Functional), func(t *testing.T) {
						checkAgainstOracle(t, run.s, run.bd.Plan, o)
					})
				}
				for src := range o.wire {
					wires += countTrue(o.wire[src])
					gathers += countTrue(o.gather[src])
					if o.nodeWire != nil {
						nodeWires += countTrue(o.nodeWire[src])
					}
				}
				for _, s := range []*System{fs, ts} {
					if s.placementEnabled() && s.placeCtl.Due(b+1) {
						if _, err := s.rebalanceNow(); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			if fs.DedupStats() != want || ts.DedupStats() != want {
				t.Fatalf("dedup counters: functional %+v, timing %+v, oracle %+v", fs.DedupStats(), ts.DedupStats(), want)
			}
			if fs.Cfg.GPUs == 1 && gathers == 0 {
				t.Fatal("no gather-dedup diagonal: the one-GPU walk goes unchecked")
			}
			if (fs.Cfg.GPUs > 1 && wires == 0) || (fs.multiNode() && nodeWires == 0) {
				t.Fatalf("no wire pairs (%d) or node-wire routes (%d): the key lists go unchecked", wires, nodeWires)
			}
			if fs.Cfg.CacheFraction > 0 && fs.Caches.Stats().Hits == 0 {
				t.Fatal("cache saw no hits; hit skipping goes unchecked")
			}
			if fs.Cfg.HotTables > 0 && mirrored == 0 {
				t.Fatal("no batch ran with a mirror installed; mirror skipping goes unchecked")
			}
		})
	}
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}
