package retrieval

import (
	"pgasemb/internal/sim"
	"pgasemb/internal/trace"
)

// Hybrid is a size-adaptive backend: for every (owner, consumer) pair of a
// batch it picks the cheaper transport — one-sided PGAS stores (paying the
// per-message header tax at link rate) or participation in the bulk-
// synchronous all-to-all (paying the collective's transfer time plus an
// amortised launch overhead). The decision is computed from the batch's
// compiled route plan and the machine's calibrated parameters only, so every
// GPU independently derives the same G×G transport matrix — no agreement
// protocol.
//
// The matrix is a routing input, not a third batch walk. A batch in which
// every pair that moves data prefers the collective (single-node only;
// node-staged and cross-node pairs always ride the one-sided path) runs
// Baseline. Every other batch runs PGASFused's walk over the matrix:
// store-routed pairs leave as one-sided stores, collective-routed pairs
// stream into the HBM send buffer, and when any pair is collective-routed
// one post-quiet exchange phase ships and lands them.
//
// On the calibrated V100 machine the header tax never exceeds the collective
// overheads at paper scales, so hybrid == pgas-fused there; the crossover
// engages when HeaderBytes grows or ChannelBandwidth approaches link rate
// (see hybrid_test.go).
type Hybrid struct {
	pgas PGASFused
	base Baseline
}

// Name implements Backend.
func (b *Hybrid) Name() string { return "hybrid" }

// transport is a batch's hybrid routing matrix: coll[src*gpus+dst] reports
// whether the (owner src, consumer dst) pair rides the all-to-all instead of
// one-sided stores. Routed batches are unreplicated, so each owner serves
// its own shard and the matrix is indexed by owner.
type transport struct {
	gpus int
	coll []bool
}

// collective reports whether the pair rides the all-to-all. A nil transport
// routes no pair there: PGASFused's own walk, every pair storing.
func (t *transport) collective(src, dst int) bool {
	return t != nil && t.coll[src*t.gpus+dst]
}

// exchanged reports whether the all-to-all carries the pair. A nil transport
// exchanges every pair: Baseline's own exchange.
func (t *transport) exchanged(src, dst int) bool {
	return t == nil || t.coll[src*t.gpus+dst]
}

// routeCollective reports whether the (owner src -> consumer dst) pair rides
// the all-to-all instead of one-sided stores. Diagonal, node-staged and
// cross-node pairs never do: the diagonal is local, node staging has no
// collective counterpart (a pair-addressed segment cannot share rows across
// a node's consumers), and cross-node stores are proxy-coalesced onto the
// NICs — per-pair collective pricing does not describe them. For the rest,
// both transports move the same vectors (the plan's CollectiveVecs), so the
// comparison reduces to wire economics: per-vector header tax at pair link
// rate versus the collective's own transfer time plus the rank's launch
// overhead amortised over its peers.
func (b *Hybrid) routeCollective(s *System, plan *RoutePlan, src, dst int) bool {
	if src == dst {
		return false
	}
	if plan.Class(src, dst) == RouteNodeWire {
		return false
	}
	if s.nodeOf(src) != s.nodeOf(dst) {
		return false
	}
	vecs := plan.CollectiveVecs(src, dst)
	if vecs == 0 {
		return false
	}
	// Both transports carry the ENCODED payload under a wire codec, but the
	// per-message header tax is unchanged — so reduced precision shifts the
	// crossover toward the one-sided path (headers amortise over fewer
	// payload bytes).
	vb := s.Cfg.WireVectorBytes()
	pgasT := float64(vecs) * s.Fab.WireBytes(vb) / s.Fab.PairBandwidth(src, dst)
	payload := float64(vecs) * float64(vb)
	collT := s.Comm.TransferTime(src, dst, payload) +
		s.Comm.Params().LaunchOverhead/sim.Duration(s.Cfg.GPUs-1)
	return collT < pgasT
}

// routes fills GPU g's transport matrix for the batch, one routeCollective
// call per pair. It returns the matrix, or nil when every pair stores, and
// whether every pair that moves data rides the collective. Zero-vector pairs
// are transport-indifferent and excluded from that tally.
func (b *Hybrid) routes(s *System, g int, bd *BatchData) (route *transport, allColl bool) {
	G := s.Cfg.GPUs
	plan := bd.Plan
	route = &s.scratchFor(g, bd).route
	route.gpus = G
	route.coll = scratchSlice(&route.coll, G*G)
	anyColl := false
	allColl = G > 1
	for src := 0; src < G; src++ {
		for dst := 0; dst < G; dst++ {
			coll := b.routeCollective(s, plan, src, dst)
			route.coll[src*G+dst] = coll
			switch {
			case coll:
				anyColl = true
			case src != dst && (plan.CollectiveVecs(src, dst) > 0 || plan.Class(src, dst) == RouteNodeWire):
				allColl = false
			}
		}
	}
	if !anyColl {
		return nil, false
	}
	return route, allColl
}

// RunBatch implements Backend.
func (b *Hybrid) RunBatch(s *System, p *sim.Proc, g int, bd *BatchData, bk *trace.Breakdown) {
	if s.Cfg.Replicas > 1 {
		// Replica failover re-routes (shard, consumer) pairs per batch; the
		// uniform one-sided path handles every routing the serve matrix can
		// produce, so delegate wholesale.
		b.pgas.RunBatch(s, p, g, bd, bk)
		return
	}
	route, allColl := b.routes(s, g, bd)
	if allColl {
		b.base.RunBatch(s, p, g, bd, bk)
		return
	}
	b.pgas.run(s, p, g, bd, bk, route)
}
