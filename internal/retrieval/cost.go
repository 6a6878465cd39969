package retrieval

import (
	"math"

	"pgasemb/internal/gpu"
	"pgasemb/internal/placement"
	"pgasemb/internal/sim"
)

// The stage-count layer. Every walk turns the batch's route-plan counts into
// the traffic of the same stages: the gather kernel, the wire codec, the
// unpack rearrangement and the dedup expansion. The functions here compute
// those counts once, for both walks. The one real difference between the
// transports is the route rule, so every function takes it as an argument:
// RoutePlan.CollectiveClass for the pair-addressed all-to-all, where
// node-level staging never applies, and RoutePlan.Class for one-sided stores,
// where it does. The walks turn the counts into kernel costs and schedule
// them; contention stays in the simulator's pipes.

// routeRule classifies the (owner o, consumer c) pair under one transport.
type routeRule func(o, c int) PairClass

// gatherTraffic is the traffic of a gather kernel, or of one sample-range
// chunk of one. read is the random-gather bytes, with hot re-reads converted
// by gpu.Params.HotReadEquivalent. stream is the streaming bytes: indices,
// staged unique rows and consumer-local outputs. items counts the output
// items, and remote those addressed to another GPU: the baseline streams
// them into its send buffer, and pgas-fused issues them as one-sided stores.
//
// stream only ever adds integers, so its sums are exact in any order; read
// is not, so each walk keeps the order it adds the hit read in.
type gatherTraffic struct {
	read, stream  float64
	items, remote int
}

// addPairs adds every (shard, consumer) pair GPU g serves over samples
// [s0, s1), each routed by class. Each pair streams its cache-missed
// references' indices and gathers by its route:
//
//   - a dense pair reads its references and outputs its pooled vectors; under
//     gather dedup it reads its new unique rows once, stages them, and reads
//     the duplicates from the staged working set (dedupGather);
//   - a wire or node-wire pair reads and outputs only the keys first seen in
//     the range.
//
// Consumer-local outputs stream to HBM; the rest are remote. Every priced
// transfer is logged to log (nil in timing runs). Over [0, BatchSize) this is
// the baseline's whole send-buffer kernel; the sum over any split of the
// range into chunks is the same traffic.
func (t *gatherTraffic) addPairs(s *System, g int, plan *RoutePlan, s0, s1 int, class routeRule, log *transferLog) {
	gp := &s.HW.GPU
	vb := float64(s.Cfg.VectorBytes())
	wvb := s.Cfg.WireVectorBytes()
	var idx int64
	for c := 0; c < s.Cfg.GPUs; c++ {
		clo, chi := s.Minibatch(c)
		lo, hi := clampRange(s0, s1, clo, chi)
		if hi <= lo {
			continue
		}
		for o := 0; o < s.Cfg.GPUs; o++ {
			if plan.ServeGPU(o, c) != g {
				continue
			}
			cls := class(o, c)
			n, _ := plan.itemsIn(cls, o, c, lo, hi)
			_, hitIdx := plan.OwnerChunkHits(o, lo, hi)
			missIdx := plan.localIndexTotal(o, lo, hi) - hitIdx
			idx += missIdx
			t.items += n
			switch {
			case cls == RouteWire || cls == RouteNodeWire:
				t.read += float64(float64(n) * vb)
			case plan.GatherDedup(o, c):
				read, stage := dedupGather(gp, int64(plan.NewKeysIn(o, c, lo, hi)), missIdx, vb)
				t.read += read
				t.stream += stage
			default:
				t.read += float64(float64(missIdx) * vb)
			}
			tr := transfer{server: g, consumer: c, shard: o, lo: lo, hi: hi, route: RouteDense, vecs: n}
			if c == g {
				t.stream += float64(float64(n) * vb) // final output
			} else {
				t.remote += n
				tr.route, tr.wireBytes = cls, n*wvb
			}
			log.add(tr)
		}
	}
	t.stream += float64(float64(idx) * 8)
}

// addHits adds consumer g's own cache and mirror gathers over samples
// [s0, s1): their references read from the hot working set, their indices
// and their outputs streamed.
func (t *gatherTraffic) addHits(s *System, g int, plan *RoutePlan, s0, s1 int) {
	vb := float64(s.Cfg.VectorBytes())
	vecs, idx := plan.ConsumerChunkHits(g, s0, s1)
	t.read += s.HW.GPU.HotReadEquivalent(float64(idx) * vb)
	t.stream += float64(float64(idx)*8) + float64(float64(vecs)*vb)
	t.items += vecs
}

// fusedKernelItems returns the items of GPU g's whole fused kernel, which
// set its occupancy: every served pair's items plus the consumer's own cache
// and mirror gathers.
func (p *RoutePlan) fusedKernelItems(g int) int {
	G := p.sys.Cfg.GPUs
	items, _ := p.ConsumerChunkHits(g, 0, p.sys.Cfg.BatchSize)
	for c := 0; c < G; c++ {
		for o := 0; o < G; o++ {
			if p.ServeGPU(o, c) == g {
				items += p.pairItems(p.Class(o, c), o, c)
			}
		}
	}
	return items
}

// storeFanOut returns the remote GPUs GPU g's one-sided stores address in the
// batch, each of which costs the fused kernel a per-chunk overhead: every
// other consumer of a pair g serves that lands rows there (pairItems > 0). A
// node-wire route lands its node's rows on the stage-lane GPU only, so the
// node's other GPUs are not addressed.
func (p *RoutePlan) storeFanOut(g int) (peers int) {
	G := p.sys.Cfg.GPUs
	for c := 0; c < G; c++ {
		if c == g {
			continue
		}
		for o := 0; o < G; o++ {
			if p.ServeGPU(o, c) == g && p.pairItems(p.Class(o, c), o, c) > 0 {
				peers++
				break
			}
		}
	}
	return peers
}

// dedupGather returns the read and staging bytes of a gather-dedup pair's
// gather over refs references, uniq of them to rows first seen in the range:
// each such row is read from its table once and staged, and the other
// references re-read the staged working set hot.
func dedupGather(gp *gpu.Params, uniq, refs int64, vb float64) (read, stage float64) {
	return float64(float64(uniq)*vb) + gp.HotReadEquivalent(float64(refs-uniq)*vb), float64(float64(uniq) * vb)
}

// gatherDedupWins reports whether a pair whose gather reads refs references
// to uniq distinct rows and outputs vecs pooled vectors is cheaper gathered
// through dedupGather than reference by reference. Both ways are priced by
// GatherKernelCost with the bytes the walk charges; the pair's indices and
// outputs stream either way. Both ways run the same items, so the decision
// holds at any kernel occupancy.
func gatherDedupWins(gp *gpu.Params, uniq, refs, vecs int64, vb float64) bool {
	if uniq >= refs {
		return false
	}
	read, stage := dedupGather(gp, uniq, refs, vb)
	out := float64(float64(refs)*8) + float64(float64(vecs)*vb)
	return gp.GatherKernelCost(read, out+stage, int(vecs)) <
		gp.GatherKernelCost(float64(float64(refs)*vb), out, int(vecs))
}

// codecVecs returns the vectors GPU g encodes, as the server of every pair it
// serves a remote consumer, and decodes, as the consumer of every pair a
// remote server serves it, when a wire codec is active. A node-wire route
// ships each node-level unique row once per destination node (counted at the
// node's stage-lane pair), and every consumer on the node decodes the whole
// staged set its expansion references. Pairs a GPU serves itself stay local
// HBM traffic and are never encoded.
func (p *RoutePlan) codecVecs(g int, class routeRule) (sent, recv int64) {
	G := p.sys.Cfg.GPUs
	for o := 0; o < G; o++ {
		for c := 0; c < G; c++ {
			if c != g && p.ServeGPU(o, c) == g {
				sent += int64(p.pairItems(class(o, c), o, c))
			}
		}
		if p.ServeGPU(o, g) == g {
			continue
		}
		if cls := class(o, g); cls == RouteNodeWire {
			recv += p.node(o, p.sys.nodeOf(g)).uniq
		} else {
			recv += int64(p.pairItems(cls, o, g))
		}
	}
	return sent, recv
}

// unpackWork returns the vectors the rearrangement kernel moves into
// consumer g's layout and the source segments they come in: one segment per
// remote server, holding the rows its pairs land at g. Unless staged, only
// dense pairs land in the staging buffer (wire rows go through expansion);
// staged, every remote pair does.
func (p *RoutePlan) unpackWork(g int, class routeRule, staged bool) (vecs int64, segments int) {
	G := p.sys.Cfg.GPUs
	for src := 0; src < G; src++ {
		if src == g {
			continue // in place
		}
		landed := false
		for o := 0; o < G; o++ {
			if p.ServeGPU(o, g) != src {
				continue
			}
			if cls := class(o, g); staged || cls == RouteDense {
				vecs += int64(p.pairItems(cls, o, g))
				landed = true
			}
		}
		if landed {
			segments++
		}
	}
	return vecs, segments
}

// expandWork returns the references consumer g's expansion kernel re-reads
// from received unique rows and the pooled vectors it writes: every wire and
// node-wire pair's cache-missed references and vectors.
func (p *RoutePlan) expandWork(g int, class routeRule) (refs int64, outVecs int) {
	for o := 0; o < p.sys.Cfg.GPUs; o++ {
		if cls := class(o, g); cls == RouteWire || cls == RouteNodeWire {
			refs += p.pairMissIdx(o, g)
			outVecs += p.pairVecs(o, g)
		}
	}
	return refs, outVecs
}

// Route pricing. Route-plan compilation decides every batch's wire routes by
// what the walks charge, not by row counts (finishDedup). Each owner GPU's
// batch is priced from its routes' terms: its whole gather kernel at
// whole-kernel occupancy, its remote issue, its slowest wire, and its
// consumers' expansion. Occupancy is why counts mislead: a kernel well below
// SaturationItems runs at a utilisation proportional to its items, so
// shipping a pair's unique rows can pay even when they outnumber its pooled
// vectors. The prices read only plan counts and HardwareParams, never a
// device's slowdown or any pipe or clock, so the plan stays a pure function
// of the seed, the cache state and the machine. One decision per pair serves
// both route rules and every backend.

// routeTerms is one route's share of its owner's priced batch, or a sum of
// shares: the gather's bytes read cold and re-read hot, its streamed bytes,
// its items and remote stores, and the expansion references and vectors its
// consumer runs. The counts are integers, so sums and differences are exact
// in any order.
type routeTerms struct {
	cold, hot, stream int64
	items, remote     int64
	expRefs, expVecs  int64
}

// plus returns t + u.
func (t routeTerms) plus(u routeTerms) routeTerms {
	return routeTerms{
		cold: t.cold + u.cold, hot: t.hot + u.hot, stream: t.stream + u.stream,
		items: t.items + u.items, remote: t.remote + u.remote,
		expRefs: t.expRefs + u.expRefs, expVecs: t.expVecs + u.expVecs,
	}
}

// minus returns t - u.
func (t routeTerms) minus(u routeTerms) routeTerms {
	return t.plus(routeTerms{
		cold: -u.cold, hot: -u.hot, stream: -u.stream,
		items: -u.items, remote: -u.remote,
		expRefs: -u.expRefs, expVecs: -u.expVecs,
	})
}

// routeTermsOf returns the terms of pair (o, c) on route cls, from the pair's
// cache-missed references miss, pooled vectors dense and unique rows uniq
// (on a node-wire route, the node's unique rows at its stage-lane pair and 0
// at the others), as the walk charges them (gatherTraffic.addPairs,
// expandWork):
//
//   - a local or dense route gathers its references, staged when gather
//     dedup wins (dedupGather), and outputs its pooled vectors;
//   - a wire or node-wire route gathers and outputs its unique rows, and the
//     consumer expands its references into its pooled vectors.
//
// Local outputs stream to HBM; remote ones are stores. Every route also
// streams its references' indices, which no route choice changes, so the
// terms leave them out.
func (s *System) routeTermsOf(cls PairClass, miss, dense, uniq int64, gather bool) routeTerms {
	vb := int64(s.Cfg.VectorBytes())
	var t routeTerms
	switch cls {
	case RouteWire, RouteNodeWire:
		t.items, t.cold = uniq, uniq*vb
		t.expRefs, t.expVecs = miss, dense
	default:
		t.items, t.cold = dense, miss*vb
		if gather {
			t.cold, t.hot, t.stream = uniq*vb, (miss-uniq)*vb, uniq*vb
		}
	}
	if cls == RouteLocal {
		t.stream += t.items * vb
	} else {
		t.remote = t.items
	}
	return t
}

// wireTime returns the uncontended time items wire vectors take from GPU src
// to GPU dst: over the pair's NVLink links within a node, or as one send on
// a NIC rail between nodes (its messages' launches, then the payload and its
// message headers at the NIC bandwidth). Latency, which every route pays
// alike, is left out.
func (s *System) wireTime(src, dst int, items int64) sim.Duration {
	if items == 0 {
		return 0
	}
	payload := int(items) * s.Cfg.WireVectorBytes()
	if s.nodeOf(src) == s.nodeOf(dst) {
		return sim.Duration(float64(payload) / (float64(s.cluster.Links(src, dst)) * s.HW.Link.LinkBandwidth))
	}
	nic := s.HW.NIC
	return sim.Duration(sim.Duration(nic.Messages(payload))*nic.MessageOverhead) +
		sim.Duration(nic.WireBytes(payload)/nic.Bandwidth)
}

// batchPrice prices an owner's batch from its summed route terms and its
// slowest route's wire time: the gather kernel over every route at their
// summed items' occupancy, the remote stores' issue, the wire, and the
// expansion of every wire route.
func (s *System) batchPrice(t routeTerms, wire sim.Duration) sim.Duration {
	gp := &s.HW.GPU
	read := float64(t.cold) + gp.HotReadEquivalent(float64(t.hot))
	return gp.GatherKernelCost(read, float64(t.stream), int(t.items)) +
		gp.RemoteIssueCost(int(t.remote)) + wire +
		gp.ExpandKernelCost(t.expRefs, int(t.expVecs), s.Cfg.VectorBytes())
}

// priceRoutes decides owner src's routes for the batch in one pass over its
// consumers, starting from all-dense, and returns the owner's priced batch
// under the pair rule and under the one-sided rule. accs are the owner's
// pair records by consumer, whose gather fields hold the gather-dedup
// decisions and whose wire fields start false; nodes are its (owner, node)
// records (unread on one node), whose wire fields start false; hitVecs and
// hitIdx are the owner's own cache and mirror hits as a consumer. At each
// remote node's first consumer, while the node's pairs are still dense, it
// marks the node node-wire (nodeAcc.wire) when that lowers the owner's
// batchPrice under the one-sided rule; at each remote pair it marks the
// pair wire (pairAcc.wire) when that lowers it under the pair rule, the
// collective's. The two rules' prices are kept side by side: they differ
// only on node-wire nodes, where the one-sided rule ignores the pair routes
// and ships one staged send instead. With dedup off every route stays dense
// and only the price is returned.
//
// The wire term is the owner's slowest link: each pair on its node has its
// own NVLink links, and each remote node's pairs share one NIC rail, so they
// are priced as one send. Running sums, and the slowest link among the
// decided and among the still-dense ones, make each flip O(1), so a batch
// costs O(GPUs²), allocation-free.
func (s *System) priceRoutes(src int, accs []pairAcc, nodes []nodeAcc, hitVecs, hitIdx int64) (pairPrice, onePrice sim.Duration) {
	G := s.Cfg.GPUs
	vb := int64(s.Cfg.VectorBytes())
	per := s.cluster.GPUsPerNode
	// A link is named by its first consumer: a pair on the owner's node, or
	// a remote node's first GPU.
	link := func(c int) (first, end int) {
		if s.nodeOf(c) == s.nodeOf(src) {
			return c, c + 1
		}
		first = s.nodeOf(c) * per
		return first, first + per
	}
	// after returns the slowest link from consumer c on (still dense).
	after := func(c int) sim.Duration {
		if c == G {
			return 0
		}
		return accs[c].after
	}

	sum := routeTerms{hot: hitIdx * vb, stream: hitIdx*8 + hitVecs*vb, items: hitVecs}
	for c := range accs {
		a := &accs[c]
		cls := RouteDense
		if c == src {
			cls = RouteLocal
		}
		a.terms = s.routeTermsOf(cls, a.miss, a.dense, a.uniq, a.gather)
		sum = sum.plus(a.terms)
		sum.stream += a.miss * 8
		k, _ := link(c)
		accs[k].link += a.terms.remote
	}
	for c := G - 1; c >= 0; c-- {
		accs[c].after = after(c + 1)
		if k, _ := link(c); k == c {
			accs[c].after = max(accs[c].after, s.wireTime(src, k, accs[k].link))
		}
	}

	// The one-sided rule's sum and slowest decided link; the pair rule's are
	// sum and pairWire.
	one := sum
	var pairWire, oneWire sim.Duration
	staged := false // consumer c's link is a node-wire node
	for c := range accs {
		a := &accs[c]
		k, end := link(c)
		l := &accs[k]
		if c == k {
			staged = false
		}
		if c != src && s.Cfg.Dedup {
			others := max(pairWire, after(end))
			if c == k && end == k+per {
				// A remote node's first consumer: price its pairs as one
				// staged send.
				var dense, staging routeTerms
				nodeUniq := nodes[s.nodeOf(c)].uniq
				lane := s.stageGPU(src, s.nodeOf(c))
				for d := c; d < end; d++ {
					var uniq int64
					if d == lane {
						uniq = nodeUniq
					}
					dense = dense.plus(accs[d].terms)
					staging = staging.plus(s.routeTermsOf(RouteNodeWire, accs[d].miss, accs[d].dense, uniq, false))
				}
				rest := max(oneWire, after(end))
				flip, send := one.minus(dense).plus(staging), s.wireTime(src, lane, nodeUniq)
				staged = s.batchPrice(flip, max(rest, send)) < s.batchPrice(one, max(rest, s.wireTime(src, k, l.link)))
				if staged {
					nodes[s.nodeOf(c)].wire = true
					one, oneWire = flip, max(oneWire, send)
				}
			}
			flipTerms := s.routeTermsOf(RouteWire, a.miss, a.dense, a.uniq, false)
			flipped := l.link - a.terms.remote + flipTerms.remote
			flip := sum.minus(a.terms).plus(flipTerms)
			if s.batchPrice(flip, max(others, s.wireTime(src, k, flipped))) <
				s.batchPrice(sum, max(others, s.wireTime(src, k, l.link))) {
				a.wire = true
				if !staged {
					one = one.minus(a.terms).plus(flipTerms)
				}
				sum, a.terms, l.link = flip, flipTerms, flipped
			}
		}
		if c == end-1 { // the link is decided
			pairWire = max(pairWire, s.wireTime(src, k, l.link))
			if !staged {
				oneWire = max(oneWire, s.wireTime(src, k, l.link))
			}
		}
	}
	return s.batchPrice(sum, pairWire), s.batchPrice(one, oneWire)
}

// migrationTime returns the uncontended makespan of a placement decision's
// sends (migrationSends): when the last of them lands if the fabric carries
// nothing else, as chargeMigration's deliveries do on an idle fabric. Sends
// within a node queue on their pair's NVLink pipe. Sends across nodes queue
// their message launches on the sending GPU's NIC rail and their wire bytes
// on that rail's egress and the destination node's ingress, then land after
// the NIC latency.
func (s *System) migrationTime(owner []int, moves []placement.Move, newMirrors []int, tableBytes []int64) sim.Duration {
	G := s.Cfg.GPUs
	nic := s.HW.NIC
	rails := s.cluster.Nodes * nic.NICsPerNode
	pipe := make([]sim.Duration, G*G)
	nicFree := make([]sim.Duration, 3*rails) // launch, egress and ingress horizons per rail
	launch, egress, ingress := nicFree[:rails], nicFree[rails:2*rails], nicFree[2*rails:]
	var until sim.Duration
	migrationSends(owner, moves, newMirrors, tableBytes, G, func(src, dst int, bytes int64) {
		payload := int(bytes)
		if s.nodeOf(src) == s.nodeOf(dst) {
			p := &pipe[src*G+dst]
			*p += sim.Duration(float64(payload) / (float64(s.cluster.Links(src, dst)) * s.HW.Link.LinkBandwidth))
			until = max(until, *p+s.HW.Link.LinkLatency)
			return
		}
		rail := s.cluster.Lane(src) % nic.NICsPerNode
		out, in := s.nodeOf(src)*nic.NICsPerNode+rail, s.nodeOf(dst)*nic.NICsPerNode+rail
		launch[out] += sim.Duration(sim.Duration(nic.Messages(payload)) * nic.MessageOverhead)
		wire := sim.Duration(nic.WireBytes(payload) / nic.Bandwidth)
		egress[out] = max(egress[out], launch[out]) + wire
		ingress[in] = max(ingress[in], launch[out]) + wire
		until = max(until, max(egress[out], ingress[in])+nic.Latency)
	})
	return until
}

// layoutPricer is the placement controller's Pricer. It prices a layout the
// way route-plan compilation prices a batch: it rebuilds every pair's
// record from the controller's per-(table, consumer) statistics,
// decides gather dedup (gatherDedupWins) and the routes (priceRoutes), and
// takes each owner's priced batch. A pair's counts are sums over its owner's
// tables:
//
//   - the owner's own table counts all its references and samples;
//   - a mirrored table's other consumers read its non-empty vectors
//     locally, as hit terms (addHits), and leave only their empty bags in
//     the pair;
//   - any other table's consumers bring their cache-missed counts to the
//     pair and their cache hits to their hit terms.
//
// A layout has two prices, one per transport, and the controller adopts a
// layout only when it pays under both: the one-sided rule's slowest owner,
// and the pair rule's slowest GPU, whose owner's batch is followed by the
// unpack of the dense segments it receives, as the collective's walk runs
// them.
//
// On one batch's counts, the incumbent layout's prices are the compiled
// plan's exactly. Other layouts reuse each (table, consumer)'s observed
// counts: a move changes which GPU serves them, not how many there are. The
// prices read only counts and HardwareParams, never a run's pipes or clock,
// so decisions are the same in every backend and mode.
type layoutPricer struct {
	s          *System // configuration, hardware and geometry only
	tableBytes []int64

	sums  []pairSums // [owner*GPUs+consumer]
	hits  []hitSums  // [consumer]
	nodeU []float64  // [owner*Nodes+node]
	accs  []pairAcc  // [owner*GPUs+consumer]
	nodes []nodeAcc  // [owner*Nodes+node]

	one, pair, unpack []sim.Duration // per GPU
	prices            []float64      // the one-sided and the pair rule's
}

// pairSums is a pair's count sums over its owner's tables.
type pairSums struct{ miss, dense, uniq float64 }

// hitSums is a consumer's cache and mirror hits: vectors and references.
type hitSums struct{ vecs, idx float64 }

func newLayoutPricer(s *System, tableBytes []int64) *layoutPricer {
	G, N := s.Cfg.GPUs, s.cluster.Nodes
	return &layoutPricer{
		s: s, tableBytes: tableBytes,
		sums: make([]pairSums, G*G), hits: make([]hitSums, G), nodeU: make([]float64, G*N),
		accs: make([]pairAcc, G*G), nodes: make([]nodeAcc, G*N),
		one: make([]sim.Duration, G), pair: make([]sim.Duration, G), unpack: make([]sim.Duration, G),
		prices: make([]float64, 2),
	}
}

// Batch implements placement.Pricer: the one-sided rule's slowest owner, and
// the pair rule's slowest owner-plus-unpack.
func (pr *layoutPricer) Batch(st *placement.Stats, owner []int, hot []bool) []float64 {
	pr.price(st, owner, hot)
	var one, pair sim.Duration
	for g := range pr.one {
		one = max(one, pr.one[g])
		pair = max(pair, pr.pair[g]+pr.unpack[g])
	}
	pr.prices[0], pr.prices[1] = one, pair
	return pr.prices
}

// Migration implements placement.Pricer.
func (pr *layoutPricer) Migration(owner []int, moves []placement.Move, newMirrors []int) float64 {
	return pr.s.migrationTime(owner, moves, newMirrors, pr.tableBytes)
}

// price fills every GPU's priced batch under the layout: as an owner under
// each route rule (one, pair), and the unpack of the dense segments it
// receives under the pair rule.
func (pr *layoutPricer) price(st *placement.Stats, owner []int, hot []bool) {
	s := pr.s
	G, N := s.Cfg.GPUs, s.cluster.Nodes
	clear(pr.sums)
	clear(pr.hits)
	clear(pr.nodeU)
	for t, o := range owner {
		for c := 0; c < G; c++ {
			x := st.Pair(t, c)
			a, h := &pr.sums[o*G+c], &pr.hits[c]
			switch {
			case c == o:
				a.miss += x.Refs
				a.dense += x.Bags
				a.uniq += x.Uniq
			case hot[t]:
				a.dense += x.Bags - x.Vecs
				h.vecs += x.Vecs
				h.idx += x.Refs
			default:
				a.miss += x.Refs - x.CacheIdx
				a.dense += x.Bags - x.CacheVecs
				a.uniq += x.Uniq
				h.vecs += x.CacheVecs
				h.idx += x.CacheIdx
			}
		}
		if N > 1 && !hot[t] {
			for node := 0; node < N; node++ {
				if node != s.nodeOf(o) {
					pr.nodeU[o*N+node] += st.NodeUniq(t, node)
				}
			}
		}
	}
	count := func(x float64) int64 { return int64(math.Round(x)) }
	vb := float64(s.Cfg.VectorBytes())
	for o := 0; o < G; o++ {
		accs := pr.accs[o*G : (o+1)*G]
		for c := range accs {
			m := pr.sums[o*G+c]
			miss := count(m.miss)
			a := pairAcc{miss: miss, dense: count(m.dense), uniq: min(count(m.uniq), miss)}
			a.gather = s.Cfg.Dedup && gatherDedupWins(&s.HW.GPU, a.uniq, a.miss, a.dense, vb)
			accs[c] = a
		}
		var nodes []nodeAcc
		if N > 1 {
			nodes = pr.nodes[o*N : (o+1)*N]
			for node := range nodes {
				nodes[node] = nodeAcc{uniq: count(pr.nodeU[o*N+node])}
			}
		}
		h := pr.hits[o]
		pr.pair[o], pr.one[o] = s.priceRoutes(o, accs, nodes, count(h.vecs), count(h.idx))
	}
	// The pair rule's unpack (unpackWork): one segment per remote owner
	// with a dense pair to the consumer, and its vectors.
	for c := 0; c < G; c++ {
		var vecs int64
		segments := 0
		for o := 0; o < G; o++ {
			if o != c && !pr.accs[o*G+c].wire {
				vecs += pr.accs[o*G+c].dense
				segments++
			}
		}
		pr.unpack[c] = 0
		if segments > 0 {
			pr.unpack[c] = s.HW.GPU.UnpackKernelCost(float64(vecs)*vb, segments)
		}
	}
}
