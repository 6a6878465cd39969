package retrieval

import (
	"fmt"

	"pgasemb/internal/placement"
	"pgasemb/internal/sim"
	"pgasemb/internal/sparse"
)

// Adaptive placement wiring. The placement package decides WHERE tables live
// and WHICH are mirrored; this file connects those decisions to the machine:
//
//   - the route-plan compiler's walk feeds the controller's statistics
//     collector each (table, consumer)'s counts (observeTable, and the
//     residency and dedup steps);
//   - mirrored hot tables are guaranteed hits in the route plan's residency
//     step (residencyTable), so every backend's existing hit-skipping path
//     serves mirror reads with zero backend edits;
//   - rebalance epochs run on the ONE simulated clock: migration traffic is
//     charged to the NVLink pipes (or the NIC fabric across nodes) at the
//     epoch boundary, and the boundary batch starts once it has landed.
//
// Determinism: the controller sees identical statistics whether the run is
// timing-only or functional (both draw the same pooling pass), so the
// placement trajectory — and therefore every route plan — is a pure function
// of (config, seed).

// placementEnabled reports whether this run rebalances adaptively.
func (s *System) placementEnabled() bool { return s.placeCtl != nil }

// Placement returns the machine's adaptive-placement controller (nil unless
// Config.AdaptivePlacement).
func (s *System) Placement() *placement.Controller { return s.placeCtl }

// hotMirrorActive reports whether any table is currently mirrored — the
// route-plan compiler's gate for the mirror classification pass.
func (s *System) hotMirrorActive() bool { return s.placeCtl != nil && s.hotCount > 0 }

// Migration returns the machine's adaptive-placement plan swaps and migrated
// bytes so far (the live counters behind Result.Rebalances/MigratedBytes).
func (s *System) Migration() (rebalances int, bytes float64) {
	return s.rebalances, s.migratedBytes
}

// placeStats returns the attached controller's statistics collector, nil
// without one.
func (s *System) placeStats() *placement.Stats {
	if s.placeCtl == nil {
		return nil
	}
	return s.placeCtl.Stats()
}

// observeTable records the layout-independent counts of the table whose
// bags fb holds into the open batch of st: its lookup count, and per
// consumer its references, non-empty bags and samples. A mirrored table is
// marked so that its layout-dependent counts keep their averages.
func (s *System) observeTable(st *placement.Stats, fb *sparse.FeatureBag) {
	fid := fb.FeatureID
	st.AddTable(fid, float64(fb.Offsets[s.Cfg.BatchSize]))
	if s.hotMirrorActive() && s.hotMirror[fid] {
		st.Mirrored(fid)
	}
	for c := 0; c < s.Cfg.GPUs; c++ {
		lo, hi := s.Minibatch(c)
		offs := fb.Offsets[lo : hi+1]
		vecs, prev := 0, offs[0]
		for _, off := range offs[1:] {
			if off > prev {
				vecs++
			}
			prev = off
		}
		x := st.Open(fid, c)
		x.Refs = float64(offs[len(offs)-1] - offs[0])
		x.Vecs = float64(vecs)
		x.Bags = float64(hi - lo)
	}
}

// accumOwnerLoad charges one batch's embedding service work to the GPU that
// performs it: for every (owner, consumer) pair, the serving GPU (the owner,
// or its replica under Config.Replicas) pays the pooled-index gathers it
// reads out of HBM; keys the consumer resolves locally — cache hits and
// hot-mirror reads — are charged to the consumer instead, which is exactly
// the load-spreading effect mirroring buys.
func (s *System) accumOwnerLoad(bd *BatchData) {
	plan := bd.Plan
	for o := 0; o < s.Cfg.GPUs; o++ {
		for c := 0; c < s.Cfg.GPUs; c++ {
			lo, hi := s.Minibatch(c)
			_, hits := plan.OwnerChunkHits(o, lo, hi)
			s.ownerKeys[c] += hits
			s.ownerKeys[plan.ServeGPU(o, c)] += plan.pairMissIdx(o, c)
		}
	}
}

// rebalanceNow asks the controller for an epoch decision and applies it to
// the machine: the plan swap (shards re-pointed, no weights copied) and the
// mirror-set update. It offers the migration traffic both cost to the fabric
// and returns when the last of it lands, the earliest the next batch may
// start, so rebalancing is never free in TotalTime.
func (s *System) rebalanceNow() (sim.Time, error) {
	reb, err := s.placeCtl.Rebalance()
	if err != nil {
		return 0, fmt.Errorf("retrieval: rebalance: %w", err)
	}
	if reb.Swapped {
		s.applyPlan(reb.Plan)
		s.rebalances++
	}
	s.setHot(reb.Hot)
	if reb.MoveBytes+reb.MirrorBytes == 0 {
		return 0, nil
	}
	s.migratedBytes += float64(reb.MoveBytes + reb.MirrorBytes)
	return s.chargeMigration(reb), nil
}

// applyPlan installs a new sharding plan on the run: Plan is rewritten in
// place, and in functional mode each GPU's collection is re-pointed at the
// migrated tables' existing weight objects — a shard move transfers
// ownership, it does not create new rows, so outputs stay bit-exact across
// the swap. Device alloc ledgers keep the spec's worst-case reservations
// (shard plus hot-mirror reserve); the controller's capacity bound is what
// keeps every intermediate plan feasible.
func (s *System) applyPlan(plan [][]int) {
	for g := range plan {
		s.Plan[g] = append(s.Plan[g][:0], plan[g]...)
	}
	if !s.Cfg.Functional {
		return
	}
	for g := range s.Plan {
		c := s.colls[g]
		c.FeatureIDs = append(c.FeatureIDs[:0], s.Plan[g]...)
		c.Tables = c.Tables[:0]
		for _, fid := range s.Plan[g] {
			c.Tables = append(c.Tables, s.tableByFID[fid])
		}
	}
}

// setHot installs the controller's mirror set on the run.
func (s *System) setHot(hot []int) {
	for i := range s.hotMirror {
		s.hotMirror[i] = false
	}
	for _, t := range hot {
		s.hotMirror[t] = true
	}
	s.hotCount = len(hot)
}

// chargeMigration offers a rebalance decision's data movement to the live
// machine (migrationSends): each send rides the direct NVLink pipe, or the
// NIC fabric when source and destination sit on different nodes. It returns
// the last delivery time — the availability cost of rebalancing under
// traffic.
func (s *System) chargeMigration(reb *placement.Rebalance) sim.Time {
	owner := make([]int, s.Cfg.TotalTables)
	for g, shard := range reb.Plan {
		for _, t := range shard {
			owner[t] = g
		}
	}
	var until sim.Time
	migrationSends(owner, reb.Moves, reb.NewMirrors, s.placeCtl.Config().TableBytes, s.Cfg.GPUs, func(src, dst int, bytes int64) {
		var at sim.Time
		if s.nodeOf(src) != s.nodeOf(dst) {
			at = s.Net.Send(src, s.nodeOf(dst), int(bytes))
		} else {
			at = s.Fab.Pipe(src, dst).Offer(float64(bytes))
		}
		until = max(until, at)
	})
	return until
}

// migrationSends calls send for every transfer a placement decision makes,
// in order: each moved table from its old owner to its new one, then each
// new mirror from its owner under owner to every other GPU.
func migrationSends(owner []int, moves []placement.Move, newMirrors []int, tableBytes []int64, gpus int, send func(src, dst int, bytes int64)) {
	for _, mv := range moves {
		send(mv.From, mv.To, tableBytes[mv.Table])
	}
	for _, t := range newMirrors {
		for g := 0; g < gpus; g++ {
			if g != owner[t] {
				send(owner[t], g, tableBytes[t])
			}
		}
	}
}
