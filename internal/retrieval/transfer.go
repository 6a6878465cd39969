package retrieval

import (
	"cmp"
	"fmt"
	"slices"
)

// The transfer log and its executor. Every backend walk prices its data
// movement from the route plan's integer counts, in timing and functional
// runs alike; no walk touches embedding data. In a functional run each walk
// also appends one record per transfer it prices to the batch's log, and once
// every server has finished the batch, one executor replays the log into
// bd.Final from the tables and the plan's functional key lists. Timing equals
// functional by construction. A record the walk forgets leaves a missing
// output the registry gate catches; a miscounted one fails the log's
// conservation test.

// transfer is one priced data movement: the vectors GPU server ships
// consumer from shard's tables for the consumer samples [lo, hi). A dense
// transfer carries pooled vectors (one per non-hit (sample, table) of the
// range; a consumer-local one never touches a wire). A wire transfer
// carries the pair's unique rows first seen in the range, and a node-wire
// transfer the owner's node-level unique rows first seen there, addressed to
// the consumer's node. wireBytes is the payload the transport charged (zero
// for local transfers).
type transfer struct {
	server, consumer, shard int
	lo, hi                  int
	route                   PairClass
	vecs                    int
	wireBytes               int
}

// transferLog is one batch's transfers, in the order the walks priced them.
// Only functional runs keep one; appending to a nil log, or an empty
// transfer, does nothing.
type transferLog struct {
	recs []transfer
	// done counts the servers that have finished walking the batch;
	// replayed marks recs as already executed, so a re-walk of the same
	// batch starts a fresh log.
	done     int
	replayed bool
}

func (l *transferLog) add(t transfer) {
	if l == nil || t.vecs == 0 {
		return
	}
	if l.replayed {
		l.recs, l.replayed = l.recs[:0], false
	}
	l.recs = append(l.recs, t)
}

// walkDone marks one server's walk of bd finished. The last server to finish
// replays the batch's log, so the outputs are complete before any caller
// reads them (every caller rendezvouses after RunBatch) and the replay reads
// the collections and plan the batch ran under (adaptive placement swaps
// them only between epochs).
func (s *System) walkDone(bd *BatchData) {
	l := bd.log
	if l == nil {
		return
	}
	if l.done++; l.done < s.Cfg.GPUs {
		return
	}
	s.replay(bd)
	l.done, l.replayed = 0, true
}

// replay executes a batch's transfer log into bd.Final. Dense transfers pool
// straight into their final slots; wire and node-wire transfers are grouped
// per (shard, consumer) pair or (shard, node), each group stages its key
// list's rows, and the group's consumers expand from the staged set. Cache and
// mirror hits were pooled at classification time and are skipped.
func (s *System) replay(bd *BatchData) {
	recs := bd.log.recs
	group := func(t transfer) int {
		if t.route == RouteNodeWire {
			return s.nodeOf(t.consumer)
		}
		return t.consumer
	}
	slices.SortFunc(recs, func(a, b transfer) int {
		return cmp.Or(cmp.Compare(a.route, b.route), cmp.Compare(a.shard, b.shard),
			cmp.Compare(group(a), group(b)))
	})
	for i := 0; i < len(recs); {
		t := recs[i]
		if t.route != RouteWire && t.route != RouteNodeWire {
			s.replayDense(bd, t)
			i++
			continue
		}
		j := i + 1
		for j < len(recs) && recs[j].route == t.route && recs[j].shard == t.shard && group(recs[j]) == group(t) {
			j++
		}
		s.replayRows(bd, recs[i:j])
		i = j
	}
}

// replayDense pools one dense transfer's vectors into the consumer's final
// layout, skipping the vectors the consumer read from its cache or mirrors.
func (s *System) replayDense(bd *BatchData, t transfer) {
	cfg := s.Cfg
	clo, _ := s.Minibatch(t.consumer)
	coll, part := s.colls[t.shard], bd.Parts[t.shard]
	dst := bd.Final[t.consumer].Data()
	for smp := t.lo; smp < t.hi; smp++ {
		for fi := range part.Features {
			if bd.Plan.isHit(t.shard, fi, smp) {
				continue
			}
			fb := &part.Features[fi]
			off := ((smp-clo)*cfg.TotalTables + fb.FeatureID) * cfg.Dim
			coll.Tables[fi].LookupPooled(fb.Bag(smp), dst[off:off+cfg.Dim])
		}
	}
}

// replayRows stages one pair's (or one node's) unique rows — its whole
// first-seen key list, which the group's wire transfers carry between them —
// then expands every consumer the rows serve: the pair's consumer, or each
// consumer on the node. The key list is table-major while the transfers
// split it by sample range, so the transfers' vectors are checked only in
// sum against it.
func (s *System) replayRows(bd *BatchData, group []transfer) {
	cfg := s.Cfg
	t := group[0]
	o := t.shard
	plan := bd.Plan
	keys := plan.pair(o, t.consumer).keys
	first, last := t.consumer, t.consumer
	if t.route == RouteNodeWire {
		node := s.nodeOf(t.consumer)
		keys = plan.node(o, node).keys
		first = node * s.cluster.GPUsPerNode
		last = first + s.cluster.GPUsPerNode - 1
	}
	vecs := 0
	for _, t := range group {
		vecs += t.vecs
	}
	if vecs != len(keys) {
		panic(fmt.Sprintf("retrieval: shard %d %s transfers to GPU %d log %d rows, key list holds %d",
			o, t.route, t.consumer, vecs, len(keys)))
	}
	rows := scratchSlice(&s.replayScr, len(keys)*cfg.Dim)
	for at, key := range keys {
		w := s.colls[o].Tables[int(key>>32)].Weights.Data()
		row := int(uint32(key))
		copy(rows[at*cfg.Dim:(at+1)*cfg.Dim], w[row*cfg.Dim:(row+1)*cfg.Dim])
	}
	for c := first; c <= last; c++ {
		expand := plan.pair(o, c).expand
		if t.route == RouteNodeWire {
			expand = plan.pair(o, c).nodeExpand
		}
		s.functionalExpand(c, o, rows, expand, bd.Parts[o], plan, bd.Final[c].Data())
	}
}
