package collective

import "pgasemb/internal/sim"

// hierScratch is one rank's reusable working set for hierarchical
// collectives, so steady-state calls allocate nothing.
type hierScratch struct {
	e1, i1 []float64 // phase-1 egress/ingress per local lane
	e3, i3 []float64 // phase-3 egress/ingress per local lane
	p2     []float64 // phase-2 egress per destination node
}

func resizeF(s *[]float64, n int) []float64 {
	if cap(*s) < n {
		*s = make([]float64, n)
	}
	*s = (*s)[:n]
	for i := range *s {
		(*s)[i] = 0
	}
	return *s
}

// hierarchical reports whether collectives should take the hierarchical
// multi-node path.
func (c *Comm) hierarchical() bool {
	return c.net.Cluster().Nodes > 1
}

// interTime is the analytic time for one rank to receive bytes over its NIC
// rail (the ingress mirror of Interconnect.SendAt, used where the receiver
// cannot observe the sender's pipe occupancy directly).
func (c *Comm) interTime(bytes float64) sim.Duration {
	if bytes <= 0 {
		return 0
	}
	nic := c.net.NIC()
	msgs := nic.Messages(int(bytes))
	return nic.WireBytes(int(bytes))/nic.Bandwidth +
		sim.Duration(sim.Duration(msgs)*nic.MessageOverhead) + nic.Latency
}

// runIntraPhase executes one intra-node exchange phase: this rank sends eg[m]
// bytes to local lane m and receives in[m] bytes from it, with egress
// occupying the NVLink wire and ingress accounted analytically — the same
// treatment as the flat all-to-all.
func (c *Comm) runIntraPhase(p *sim.Proc, rank, node, lane int, eg, in []float64) {
	cl := c.net.Cluster()
	start := p.Now()
	var worst sim.Duration
	var egress float64
	for m := range eg {
		if m == lane {
			continue
		}
		gm := cl.GPU(node, m)
		if out := c.occupyWire(p, rank, gm, eg[m], c.TransferTime(rank, gm, eg[m])); out > worst {
			worst = out
		}
		if t := c.TransferTime(gm, rank, in[m]); t > worst {
			worst = t
		}
		egress += eg[m]
	}
	if worst > 0 {
		c.volume.Add(start, start+worst, egress)
	}
	p.Wait(worst)
}

// hierAllToAll runs the hierarchical all-to-all schedule for one rank. For
// node pair (a, b) the aggregate a->b traffic is carried by sending lane
// b%G on node a and received by lane a%G... more precisely: lane b%G on any
// node both relays egress *to* node b and receives ingress *from* node b
// (self-symmetric lane assignment), which spreads node pairs round-robin
// across lanes and hence across NIC rails.
//
// Phase 1 (NVLink): each rank hands local lane m its direct segment for
// GPU(a,m) plus everything destined to remote nodes relayed by m.
// Phase 2 (NIC): lane l sends, for each remote node b with b%G == l, the
// whole node's aggregate traffic to b as one coalesced NIC send.
// Phase 3 (NVLink): receiving lanes scatter the per-node ingress to the
// local consumers.
//
// Only the timing schedule differs from the flat all-to-all. The op is
// released after the per-phase aggregates are computed — all ranks compute
// them at the rendezvous-release instant, before any simulated time passes.
func (c *Comm) hierAllToAll(p *sim.Proc, rank int, op *pendingOp) {
	cl := c.net.Cluster()
	G, N := cl.GPUsPerNode, cl.Nodes
	a, l := cl.Node(rank), cl.Lane(rank)
	sc := &c.hier[rank]
	e1 := resizeF(&sc.e1, G)
	i1 := resizeF(&sc.i1, G)
	e3 := resizeF(&sc.e3, G)
	i3 := resizeF(&sc.i3, G)
	p2 := resizeF(&sc.p2, N)
	sizes := op.sizes
	var in2 float64

	for m := 0; m < G; m++ {
		if m == l {
			continue
		}
		gm := cl.GPU(a, m)
		e1[m] = sizes[rank][gm]
		i1[m] = sizes[gm][rank]
	}
	for b := 0; b < N; b++ {
		if b == a {
			continue
		}
		relay := b % G
		if relay != l {
			// Hand our node-b traffic to the relaying lane (phase 1) and
			// later receive our share of node b's ingress from it (phase 3).
			var mine float64
			for t := 0; t < G; t++ {
				mine += sizes[rank][cl.GPU(b, t)]
			}
			e1[relay] += mine
			var back float64
			for s := 0; s < G; s++ {
				back += sizes[cl.GPU(b, s)][rank]
			}
			i3[relay] += back
			continue
		}
		// We relay node b: collect local peers' node-b traffic (phase 1
		// ingress), send the node aggregate over the NIC (phase 2 egress),
		// receive node b's aggregate for our node (phase 2 ingress), and
		// scatter it to local consumers (phase 3 egress).
		var tot float64
		for q := 0; q < G; q++ {
			gq := cl.GPU(a, q)
			var toB float64
			for t := 0; t < G; t++ {
				toB += sizes[gq][cl.GPU(b, t)]
			}
			tot += toB
			if q != l {
				i1[q] += toB
			}
		}
		p2[b] = tot
		for s := 0; s < G; s++ {
			gs := cl.GPU(b, s)
			for q := 0; q < G; q++ {
				from := sizes[gs][cl.GPU(a, q)]
				in2 += from
				if q != l {
					e3[q] += from
				}
			}
		}
	}
	c.release(op)

	p.Wait(c.params.LaunchOverhead)
	c.runIntraPhase(p, rank, a, l, e1, i1)
	c.barrier.Await(p)

	start := p.Now()
	var worst sim.Duration
	var egress float64
	for b := 0; b < N; b++ {
		if p2[b] <= 0 {
			continue
		}
		if d := c.net.SendAt(start, rank, b, int(p2[b])) - start; d > worst {
			worst = d
		}
		egress += p2[b]
	}
	if t := c.interTime(in2); t > worst {
		worst = t
	}
	if worst > 0 {
		c.volume.Add(start, start+worst, egress)
	}
	p.Wait(worst)
	c.barrier.Await(p)

	c.runIntraPhase(p, rank, a, l, e3, i3)
}
