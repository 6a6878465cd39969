// Package fabric models the inter-node interconnect of a multi-node
// cluster: per-node NICs carrying RDMA-style messages between NVLink
// islands. It composes with internal/nvlink — a Cluster topology wires the
// intra-node NVLink pipes as usual but leaves inter-node pairs unconnected,
// and all cross-node traffic instead flows through an Interconnect, whose
// per-NIC fluid pipes reuse the same contention model (sim.Pipe) as the
// NVLink fabric.
//
// The model mirrors how NVSHMEM reaches remote nodes in practice: not by
// device-initiated stores over a load/store fabric, but through a proxy that
// batches work onto an InfiniBand/RoCE NIC. Each node has NICsPerNode rails;
// GPU lane l uses rail l%NICsPerNode, and a message occupies both the
// sender's egress rail and the receiver's ingress rail (rail-aligned, as in
// rail-optimised cluster networks).
package fabric

import (
	"fmt"

	"pgasemb/internal/sim"
)

// NICParams describes one node's network interface cards.
type NICParams struct {
	// NICsPerNode is the number of independent NIC rails per node. GPU
	// lane l sends and receives on rail l % NICsPerNode.
	NICsPerNode int

	// Bandwidth is bytes/second per NIC per direction (egress and ingress
	// are independent, as on a full-duplex link).
	Bandwidth float64

	// Latency is the one-way delivery latency of a message once it has
	// drained the sender's egress rail.
	Latency sim.Duration

	// HeaderBytes is the per-message wire overhead (transport headers).
	HeaderBytes int

	// MaxMessage is the largest single message payload; larger sends are
	// split and pay one header (and one launch overhead) per message.
	MaxMessage int

	// MessageOverhead is the per-message launch cost on the sending rail
	// (proxy doorbell + WQE posting). Messages from one rail serialise on
	// this overhead before occupying wire bandwidth.
	MessageOverhead sim.Duration
}

// DefaultNICParams returns a 100 Gb/s-class RDMA NIC: one rail per node,
// 12.5 GB/s per direction, 2 us one-way latency, 64 B headers, 1 MiB max
// message, 1 us per-message launch overhead.
func DefaultNICParams() NICParams {
	return NICParams{
		NICsPerNode:     1,
		Bandwidth:       12.5e9,
		Latency:         2 * sim.Microsecond,
		HeaderBytes:     64,
		MaxMessage:      1 << 20,
		MessageOverhead: sim.Microsecond,
	}
}

// Validate reports whether the parameter set is usable.
func (p NICParams) Validate() error {
	switch {
	case p.NICsPerNode <= 0:
		return fmt.Errorf("fabric: NICsPerNode must be positive")
	case p.Bandwidth <= 0:
		return fmt.Errorf("fabric: NIC Bandwidth must be positive")
	case p.Latency < 0:
		return fmt.Errorf("fabric: NIC Latency must be non-negative")
	case p.HeaderBytes < 0:
		return fmt.Errorf("fabric: NIC HeaderBytes must be non-negative")
	case p.MaxMessage <= 0:
		return fmt.Errorf("fabric: NIC MaxMessage must be positive")
	case p.MessageOverhead < 0:
		return fmt.Errorf("fabric: NIC MessageOverhead must be non-negative")
	}
	return nil
}

// Messages returns how many NIC messages a payload of the given size needs.
// A zero-byte send is still one (header-only) message.
func (p NICParams) Messages(payload int) int {
	if payload < 0 {
		panic(fmt.Sprintf("fabric: negative payload %d", payload))
	}
	if payload == 0 {
		return 1
	}
	return (payload + p.MaxMessage - 1) / p.MaxMessage
}

// WireBytes returns the on-the-wire size of a payload: each MaxMessage-sized
// fragment pays one header.
func (p NICParams) WireBytes(payload int) float64 {
	return float64(payload + p.Messages(payload)*p.HeaderBytes)
}

// Cluster composes N identical NVLink nodes into one addressable GPU space:
// GPUs [k*GPUsPerNode, (k+1)*GPUsPerNode) form node k. It implements
// nvlink.Topology with zero links between nodes — the NVLink fabric wires
// only the intra-node pipes, and every cross-node byte must go through an
// Interconnect instead.
type Cluster struct {
	Nodes       int
	GPUsPerNode int
	// IntraLinks is the NVLink link count per intra-node GPU pair (the
	// paper's DGX Station wires 2).
	IntraLinks int
}

// Validate reports whether the cluster shape is usable.
func (c Cluster) Validate() error {
	switch {
	case c.Nodes <= 0:
		return fmt.Errorf("fabric: cluster needs at least one node, got %d", c.Nodes)
	case c.GPUsPerNode <= 0:
		return fmt.Errorf("fabric: cluster needs at least one GPU per node, got %d", c.GPUsPerNode)
	case c.IntraLinks <= 0:
		return fmt.Errorf("fabric: cluster needs at least one intra-node NVLink link, got %d", c.IntraLinks)
	}
	return nil
}

// NumGPUs implements nvlink.Topology.
func (c Cluster) NumGPUs() int { return c.Nodes * c.GPUsPerNode }

// Node returns the node index of GPU g.
func (c Cluster) Node(g int) int { return g / c.GPUsPerNode }

// Lane returns g's lane (local index) within its node.
func (c Cluster) Lane(g int) int { return g % c.GPUsPerNode }

// GPU returns the global index of the given lane on the given node.
func (c Cluster) GPU(node, lane int) int { return node*c.GPUsPerNode + lane }

// Links implements nvlink.Topology: intra-node pairs are fully connected
// with IntraLinks NVLink links; inter-node pairs have no direct wire.
func (c Cluster) Links(a, b int) int {
	if a == b {
		return 0
	}
	n := c.NumGPUs()
	if a < 0 || b < 0 || a >= n || b >= n {
		panic(fmt.Sprintf("fabric: GPU index out of range: Links(%d, %d) with %d GPUs", a, b, n))
	}
	if c.Node(a) == c.Node(b) {
		return c.IntraLinks
	}
	return 0
}

// Interconnect is the cluster's NIC layer: per-node, per-rail egress and
// ingress fluid pipes on the simulation clock. A Send occupies the sender
// node's egress rail and the destination node's ingress rail (the same rail
// index — rail-aligned routing) and completes after both have drained plus
// the NIC latency. Two concurrent flows sharing a rail therefore each see
// half its bandwidth, exactly like two stores sharing an NVLink pipe.
type Interconnect struct {
	env     *sim.Env
	cluster Cluster
	nic     NICParams

	// The per-rail slices are indexed by railIndex(node, rail). launchFree
	// is when the rail's proxy engine is free to post the next message
	// (MessageOverhead serialisation).
	egress     []*sim.Pipe
	ingress    []*sim.Pipe
	launchFree []sim.Time

	messages     int64
	payloadBytes float64
	wireBytes    float64
}

// NewInterconnect wires the NIC rails for a cluster. The per-rail pipes are
// zero-latency — latency is added once per message on delivery, so that
// splitting a payload across fragments does not multiply propagation delay.
func NewInterconnect(env *sim.Env, cluster Cluster, nic NICParams) *Interconnect {
	if err := cluster.Validate(); err != nil {
		panic(err)
	}
	if err := nic.Validate(); err != nil {
		panic(err)
	}
	rails := cluster.Nodes * nic.NICsPerNode
	pipes := make([]*sim.Pipe, 2*rails) // one allocation: a run wires a fresh interconnect
	ic := &Interconnect{
		env:        env,
		cluster:    cluster,
		nic:        nic,
		egress:     pipes[:rails:rails],
		ingress:    pipes[rails:],
		launchFree: make([]sim.Time, rails),
	}
	for node := 0; node < cluster.Nodes; node++ {
		for rail := 0; rail < nic.NICsPerNode; rail++ {
			i := ic.railIndex(node, rail)
			ic.egress[i] = sim.NewPipe(env, fmt.Sprintf("nic-egress-%d.%d", node, rail), nic.Bandwidth, 0)
			ic.ingress[i] = sim.NewPipe(env, fmt.Sprintf("nic-ingress-%d.%d", node, rail), nic.Bandwidth, 0)
		}
	}
	return ic
}

// Cluster returns the cluster geometry.
func (ic *Interconnect) Cluster() Cluster { return ic.cluster }

// NIC returns the NIC parameters.
func (ic *Interconnect) NIC() NICParams { return ic.nic }

// railIndex flattens (node, rail) into the per-rail slices.
func (ic *Interconnect) railIndex(node, rail int) int { return node*ic.nic.NICsPerNode + rail }

// Rail returns the NIC rail GPU g sends and receives on.
func (ic *Interconnect) Rail(g int) int {
	return ic.cluster.Lane(g) % ic.nic.NICsPerNode
}

// SendAt models one coalesced send of payload bytes from GPU src to node
// dstNode, ready to leave at readyAt: the payload is split into MaxMessage
// fragments, each paying a header and a launch overhead on the sending rail,
// then the wire bytes occupy both the egress and the (rail-aligned) ingress
// pipe. Returns the delivery time at the destination node.
func (ic *Interconnect) SendAt(readyAt sim.Time, src, dstNode, payload int) sim.Time {
	srcNode := ic.cluster.Node(src)
	if srcNode == dstNode {
		panic(fmt.Sprintf("fabric: Send from GPU %d to its own node %d", src, dstNode))
	}
	if dstNode < 0 || dstNode >= ic.cluster.Nodes {
		panic(fmt.Sprintf("fabric: destination node %d out of range (%d nodes)", dstNode, ic.cluster.Nodes))
	}
	rail := ic.Rail(src)
	msgs := ic.nic.Messages(payload)
	wire := ic.nic.WireBytes(payload)

	start := readyAt
	if now := ic.env.Now(); now > start {
		start = now
	}
	// Message launches serialise on the sending rail's proxy engine.
	src, dst := ic.railIndex(srcNode, rail), ic.railIndex(dstNode, rail)
	if lf := ic.launchFree[src]; lf > start {
		start = lf
	}
	start += sim.Duration(sim.Duration(msgs) * ic.nic.MessageOverhead)
	ic.launchFree[src] = start

	eDone := ic.egress[src].OfferAt(start, wire)
	iDone := ic.ingress[dst].OfferAt(start, wire)
	delivered := eDone
	if iDone > delivered {
		delivered = iDone
	}
	delivered += ic.nic.Latency

	ic.messages += int64(msgs)
	ic.payloadBytes += float64(payload)
	ic.wireBytes += wire
	return delivered
}

// Send is SendAt at the current simulated time.
func (ic *Interconnect) Send(src, dstNode, payload int) sim.Time {
	return ic.SendAt(ic.env.Now(), src, dstNode, payload)
}

// SetRailDegrade scales the bandwidth of one node's NIC rail by factor
// (1 = healthy) — the fault-injection hook for a flapping or degraded NIC.
// Both the egress and ingress pipe of the rail degrade together, since a
// sick NIC hurts every direction through it.
func (ic *Interconnect) SetRailDegrade(node, rail int, factor float64) {
	if node < 0 || node >= ic.cluster.Nodes {
		panic(fmt.Sprintf("fabric: degrade on node %d out of range (%d nodes)", node, ic.cluster.Nodes))
	}
	if rail < 0 || rail >= ic.nic.NICsPerNode {
		panic(fmt.Sprintf("fabric: degrade on rail %d out of range (%d rails)", rail, ic.nic.NICsPerNode))
	}
	i := ic.railIndex(node, rail)
	ic.egress[i].SetDegrade(factor)
	ic.ingress[i].SetDegrade(factor)
}

// Messages returns the cumulative NIC message count since the last Reset.
func (ic *Interconnect) Messages() int64 { return ic.messages }

// PayloadBytes returns the cumulative payload bytes sent over the NICs.
func (ic *Interconnect) PayloadBytes() float64 { return ic.payloadBytes }

// WireBytes returns the cumulative payload+header bytes sent over the NICs.
func (ic *Interconnect) WireBytes() float64 { return ic.wireBytes }
