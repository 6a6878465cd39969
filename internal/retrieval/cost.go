package retrieval

import "pgasemb/internal/gpu"

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
// by gpu.Device.HotReadEquivalent. stream is the streaming bytes: indices,
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
	dev := s.Devs[g]
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
				read, stage := dedupGather(dev, int64(plan.NewKeysIn(o, c, lo, hi)), missIdx, vb)
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
	t.read += s.Devs[g].HotReadEquivalent(float64(idx) * vb)
	t.stream += float64(float64(idx)*8) + float64(float64(vecs)*vb)
	t.items += vecs
}

// fusedKernelItems returns the items of GPU g's whole fused kernel, which
// set its occupancy — every served pair's items plus the consumer's own cache
// and mirror gathers — and the remote consumers it stores to, each of which
// costs a per-chunk overhead.
func (p *RoutePlan) fusedKernelItems(g int) (items, peers int) {
	G := p.sys.Cfg.GPUs
	items, _ = p.ConsumerChunkHits(g, 0, p.sys.Cfg.BatchSize)
	for c := 0; c < G; c++ {
		serves := false
		for o := 0; o < G; o++ {
			if p.ServeGPU(o, c) == g {
				items += p.pairItems(p.Class(o, c), o, c)
				serves = true
			}
		}
		if serves && c != g {
			peers++
		}
	}
	return items, peers
}

// dedupGather returns the read and staging bytes of a gather-dedup pair's
// gather over refs references, uniq of them to rows first seen in the range:
// each such row is read from its table once and staged, and the other
// references re-read the staged working set hot.
func dedupGather(dev *gpu.Device, uniq, refs int64, vb float64) (read, stage float64) {
	return float64(float64(uniq)*vb) + dev.HotReadEquivalent(float64(refs-uniq)*vb), float64(float64(uniq) * vb)
}

// gatherDedupWins reports whether a pair whose gather reads refs references
// to uniq distinct rows and outputs vecs pooled vectors is cheaper gathered
// through dedupGather than reference by reference. Both ways are priced by
// dev.GatherKernelCost with the bytes the walk charges; the pair's indices
// and outputs stream either way.
func gatherDedupWins(dev *gpu.Device, uniq, refs, vecs int64, vb float64) bool {
	if uniq >= refs {
		return false
	}
	read, stage := dedupGather(dev, uniq, refs, vb)
	out := float64(float64(refs)*8) + float64(float64(vecs)*vb)
	return dev.GatherKernelCost(read, out+stage, int(vecs)) <
		dev.GatherKernelCost(float64(float64(refs)*vb), out, int(vecs))
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
			recv += p.Dedup.NodeUniq[o][p.sys.nodeOf(g)]
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
