package retrieval

import "pgasemb/internal/fault"

// Replicated shards (Config.Replicas > 1): shard o's tables are mirrored on
// GPUs (o+k) mod GPUs for k < Replicas, and the route-plan compiler picks,
// per batch and per (shard, consumer) pair, which replica serves — the
// consumer itself when it holds a mirror (the remote read becomes a local
// gather), otherwise the replica with the best degradation-aware path. The
// selection is a pure function of (fault schedule, batch index, machine
// shape), so every GPU derives the same serve column host-side and no
// agreement protocol runs on the simulated machine. Backends walk the pairs
// each GPU serves through RoutePlan.ServeGPU, so a replicated run takes the
// same batch path as an unreplicated one, whose serve column is the
// identity.
//
// Functionally, mirrors alias the primary shard's collection (s.colls[o]):
// replication changes which GPU reads the weights, never the weights
// themselves, so replicated results are bit-exact against the serial
// reference under any fault schedule by construction.

// computeServe writes the batch's replica routing into the plan's serve
// column: serve[o*GPUs+c] is the GPU serving shard o to consumer c. Ties
// between equally healthy replicas break toward the smallest replica offset
// k, keeping the choice deterministic.
func (s *System) computeServe(batch int) {
	cfg := s.Cfg
	G := cfg.GPUs
	sched := s.HW.Faults
	serve := s.route.serve
	for o := 0; o < G; o++ {
		for c := 0; c < G; c++ {
			best, bestBW := o, -1.0
			for k := 0; k < cfg.Replicas; k++ {
				r := (o + k) % G
				if r == c {
					// A consumer-local mirror always wins: no wire at all.
					best = c
					break
				}
				if bw := s.replicaPathBW(sched, batch, r, c); bw > bestBW {
					best, bestBW = r, bw
				}
			}
			serve[o*G+c] = best
		}
	}
}

// replicaPathBW scores the replica r -> consumer c path: the effective
// bandwidth of the pair's wire after the batch's degradations. Same-node
// pairs ride NVLink (link count x per-link rate x link health); cross-node
// pairs ride the NICs, throttled by the unhealthier of the egress and
// ingress rails.
func (s *System) replicaPathBW(sched *fault.Schedule, batch, r, c int) float64 {
	if s.nodeOf(r) != s.nodeOf(c) {
		egress := sched.NICFactor(batch, s.nodeOf(r), s.Net.Rail(r))
		ingress := sched.NICFactor(batch, s.nodeOf(c), s.Net.Rail(c))
		health := egress
		if ingress < health {
			health = ingress
		}
		return s.HW.NIC.Bandwidth * health
	}
	links := float64(s.Fab.Topology().Links(r, c))
	return links * s.HW.Link.LinkBandwidth * sched.LinkFactor(batch, r, c)
}
