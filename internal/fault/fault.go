// Package fault provides deterministic, replayable fault schedules for the
// simulated machine: link and NIC bandwidth degradation (including outage
// windows), per-GPU straggler slowdowns, and proxy delivery drops. A
// Schedule is pure data plus pure query functions — it holds no clock and
// mutates nothing; the layers that own pipes, devices and proxies (the
// retrieval System, the serving layer) query it at batch boundaries and
// apply the returned factors through the fault hooks those layers expose
// (sim.Pipe.SetDegrade, gpu.Device.SetSlowdown, fabric
// Interconnect.SetRailDegrade, pgas.FaultHooks).
//
// Faults are windowed on the *batch index*, not on wall-clock time: the
// route-plan compiler runs host-side per batch, so batch-indexed health is
// what lets it pick replicas around a degraded link before the batch is
// issued, and it makes every fault decision a pure function of (schedule,
// batch) — two same-seed runs replay byte-identically regardless of how
// long each batch takes.
package fault

import "fmt"

// OutageFactor is the residual bandwidth factor used to model a link or NIC
// outage. Fully stopping a fluid pipe would strand queued traffic forever;
// a 1000x degradation makes the wire useless enough that any sane routing
// layer avoids it, while everything already in flight still terminates.
const OutageFactor = 1e-3

// Kind enumerates the injectable fault classes.
type Kind int

const (
	// LinkDegrade scales the directed NVLink pipe Src->Dst by Factor.
	LinkDegrade Kind = iota
	// NICDegrade scales node Node's NIC rail Rail (or all rails when Rail
	// is negative) by Factor.
	NICDegrade
	// Straggler scales every kernel cost on GPU by Factor (>= 1).
	Straggler
	// ProxyDrop makes inter-node proxy deliveries from PE Src (all PEs when
	// negative) to node Node (all nodes when negative) fail with
	// probability DropProb per attempt.
	ProxyDrop
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case LinkDegrade:
		return "link-degrade"
	case NICDegrade:
		return "nic-degrade"
	case Straggler:
		return "straggler"
	case ProxyDrop:
		return "proxy-drop"
	}
	return fmt.Sprintf("fault.Kind(%d)", int(k))
}

// Event is one windowed fault. The window covers batch indices
// [FromBatch, ToBatch); a non-positive ToBatch leaves the fault active for
// the rest of the run. Which of the remaining fields matter depends on
// Kind (see the Kind constants).
type Event struct {
	Kind               Kind
	FromBatch, ToBatch int

	Src, Dst   int     // LinkDegrade (GPU pair), ProxyDrop (Src = PE)
	Node, Rail int     // NICDegrade (Rail < 0 = all rails), ProxyDrop (Node = destination)
	GPU        int     // Straggler
	Factor     float64 // LinkDegrade/NICDegrade in (0, 1], Straggler >= 1
	DropProb   float64 // ProxyDrop in [0, 1)
}

// active reports whether the event covers batch index b.
func (e Event) active(b int) bool {
	return b >= e.FromBatch && (e.ToBatch <= 0 || b < e.ToBatch)
}

// Schedule is a seeded, immutable fault plan. The zero value (and nil) is
// the empty schedule: every query returns the healthy answer. Schedules are
// safe for concurrent readers.
type Schedule struct {
	// Seed drives the deterministic drop decisions of ProxyDrop events. It
	// is independent of the workload seed so the same fault plan can replay
	// against different traffic.
	Seed uint64

	// Events are the windowed faults. Overlapping degradations multiply.
	Events []Event
}

// Validate reports the first malformed event, if any. Nil schedules are
// valid (and empty).
func (s *Schedule) Validate() error {
	if s == nil {
		return nil
	}
	for i, e := range s.Events {
		prefix := fmt.Sprintf("fault: event %d (%s)", i, e.Kind)
		if e.FromBatch < 0 {
			return fmt.Errorf("%s: negative FromBatch %d", prefix, e.FromBatch)
		}
		if e.ToBatch > 0 && e.ToBatch <= e.FromBatch {
			return fmt.Errorf("%s: empty window [%d, %d)", prefix, e.FromBatch, e.ToBatch)
		}
		switch e.Kind {
		case LinkDegrade:
			switch {
			case e.Src < 0 || e.Dst < 0:
				return fmt.Errorf("%s: negative GPU pair (%d, %d)", prefix, e.Src, e.Dst)
			case e.Src == e.Dst:
				return fmt.Errorf("%s: self link on GPU %d", prefix, e.Src)
			case e.Factor <= 0 || e.Factor > 1:
				return fmt.Errorf("%s: factor %g outside (0, 1]", prefix, e.Factor)
			}
		case NICDegrade:
			switch {
			case e.Node < 0:
				return fmt.Errorf("%s: negative node %d", prefix, e.Node)
			case e.Factor <= 0 || e.Factor > 1:
				return fmt.Errorf("%s: factor %g outside (0, 1]", prefix, e.Factor)
			}
		case Straggler:
			switch {
			case e.GPU < 0:
				return fmt.Errorf("%s: negative GPU %d", prefix, e.GPU)
			case e.Factor < 1:
				return fmt.Errorf("%s: slowdown factor %g below 1", prefix, e.Factor)
			}
		case ProxyDrop:
			if e.DropProb < 0 || e.DropProb >= 1 {
				return fmt.Errorf("%s: drop probability %g outside [0, 1)", prefix, e.DropProb)
			}
		default:
			return fmt.Errorf("fault: event %d has unknown kind %d", i, int(e.Kind))
		}
	}
	return nil
}

// Empty reports whether the schedule injects nothing (nil or no events).
func (s *Schedule) Empty() bool { return s == nil || len(s.Events) == 0 }

// HasProxyDrops reports whether any event injects proxy delivery loss — the
// signal for installing the pgas retry hooks at all.
func (s *Schedule) HasProxyDrops() bool {
	if s == nil {
		return false
	}
	for _, e := range s.Events {
		if e.Kind == ProxyDrop && e.DropProb > 0 {
			return true
		}
	}
	return false
}

// LinkFactor returns the bandwidth factor for the directed NVLink pipe
// src->dst at batch b: the product of all active LinkDegrade events on the
// pair, 1 when healthy.
func (s *Schedule) LinkFactor(b, src, dst int) float64 {
	if s == nil {
		return 1
	}
	f := 1.0
	for _, e := range s.Events {
		if e.Kind == LinkDegrade && e.Src == src && e.Dst == dst && e.active(b) {
			f *= e.Factor
		}
	}
	return f
}

// NICFactor returns the bandwidth factor for node's NIC rail at batch b.
func (s *Schedule) NICFactor(b, node, rail int) float64 {
	if s == nil {
		return 1
	}
	f := 1.0
	for _, e := range s.Events {
		if e.Kind == NICDegrade && e.Node == node && (e.Rail < 0 || e.Rail == rail) && e.active(b) {
			f *= e.Factor
		}
	}
	return f
}

// Slowdown returns GPU gpu's kernel-cost factor at batch b (>= 1).
func (s *Schedule) Slowdown(b, gpu int) float64 {
	if s == nil {
		return 1
	}
	f := 1.0
	for _, e := range s.Events {
		if e.Kind == Straggler && e.GPU == gpu && e.active(b) {
			f *= e.Factor
		}
	}
	return f
}

// DropProb returns the per-attempt delivery-loss probability for proxy
// traffic from PE pe to node dstNode at batch b. Overlapping drop events
// combine as independent loss processes: 1 - prod(1 - p).
func (s *Schedule) DropProb(b, pe, dstNode int) float64 {
	if s == nil {
		return 0
	}
	keep := 1.0
	for _, e := range s.Events {
		if e.Kind == ProxyDrop && (e.Src < 0 || e.Src == pe) && (e.Node < 0 || e.Node == dstNode) && e.active(b) {
			keep *= 1 - e.DropProb
		}
	}
	return 1 - keep
}

// Drops decides deterministically whether the seq-th proxy flush from PE pe
// to dstNode is lost on the given delivery attempt at batch b. The decision
// hashes (Seed, pe, dstNode, seq, attempt) to a uniform [0, 1) draw and
// compares it against DropProb — a pure function, so same-seed runs replay
// the exact same loss pattern.
func (s *Schedule) Drops(b, pe, dstNode int, seq int64, attempt int) bool {
	p := s.DropProb(b, pe, dstNode)
	if p <= 0 {
		return false
	}
	return uniform01(s.Seed, uint64(pe), uint64(dstNode), uint64(seq), uint64(attempt)) < p
}

// AnyActive reports whether any event of any kind is active at batch b —
// the coarse "machine is degraded right now" health signal the serving
// layer's shedding and stale-cache policies key on.
func (s *Schedule) AnyActive(b int) bool {
	if s == nil {
		return false
	}
	for _, e := range s.Events {
		if e.active(b) {
			return true
		}
	}
	return false
}

// uniform01 maps the given words to a uniform [0, 1) draw with a splitmix64
// finalization chain — stateless, so concurrent queries never race.
func uniform01(seed uint64, words ...uint64) float64 {
	x := seed ^ 0x9E3779B97F4A7C15
	for _, w := range words {
		x = splitmix64(x + w*0xBF58476D1CE4E5B9)
	}
	return float64(splitmix64(x)>>11) / (1 << 53)
}

func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
