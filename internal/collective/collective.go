// Package collective implements an NCCL-like collective communication
// library over the simulated NVLink fabric: the all-to-all exchange the
// paper's baseline uses after the embedding kernel (PyTorch
// all_to_all_single with async_op=true + wait).
//
// Collectives are bulk-synchronous: no rank's transfers start before every
// rank has entered the call (the "false dependency" the paper eliminates),
// and each call pays a host-side launch overhead. Transfer bandwidth per
// GPU pair is the minimum of the raw link bandwidth and the protocol's
// effective channel bandwidth — NCCL point-to-point sends are driven by SM
// copy engines through a limited number of channels, and on V100-class
// hardware all-to-all achieves only a modest fraction of the NVLink line
// rate. ChannelBandwidth is the calibrated knob behind the paper's measured
// communication component; see EXPERIMENTS.md.
package collective

import (
	"fmt"

	"pgasemb/internal/fabric"
	"pgasemb/internal/nvlink"
	"pgasemb/internal/sim"
	"pgasemb/internal/trace"
)

// Params describes the collective protocol.
type Params struct {
	// ChannelBandwidth is the effective bytes/second a rank can push to one
	// peer inside a collective (protocol-limited; may be below link rate).
	ChannelBandwidth float64

	// LaunchOverhead is the host-side cost of invoking one collective.
	LaunchOverhead sim.Duration

	// ChunkBytes is the pipelining granularity; each chunk pays
	// PerChunkLatency.
	ChunkBytes int

	// PerChunkLatency is the protocol latency per chunk per hop.
	PerChunkLatency sim.Duration
}

// DefaultParams returns parameters calibrated against the paper's measured
// baseline communication component (see EXPERIMENTS.md §Calibration).
func DefaultParams() Params {
	return Params{
		ChannelBandwidth: 2.6e9,
		LaunchOverhead:   30 * sim.Microsecond,
		ChunkBytes:       4 << 20,
		PerChunkLatency:  8 * sim.Microsecond,
	}
}

// Validate reports whether the parameter set is usable.
func (p Params) Validate() error {
	switch {
	case p.ChannelBandwidth <= 0:
		return fmt.Errorf("collective: ChannelBandwidth must be positive")
	case p.LaunchOverhead < 0:
		return fmt.Errorf("collective: LaunchOverhead must be non-negative")
	case p.ChunkBytes <= 0:
		return fmt.Errorf("collective: ChunkBytes must be positive")
	case p.PerChunkLatency < 0:
		return fmt.Errorf("collective: PerChunkLatency must be non-negative")
	}
	return nil
}

// Comm is a communicator over a fixed set of ranks (one per GPU). All ranks
// must call each collective in the same order — the standard NCCL contract.
type Comm struct {
	env    *sim.Env
	fabric *nvlink.Fabric
	params Params

	// net is the inter-node NIC layer, and hier the per-rank scratch for
	// the hierarchical schedules (nil on one node).
	net  *fabric.Interconnect
	hier []hierScratch

	volume *trace.VolumeTrace

	// Rendezvous state for the in-flight collective. Op descriptors are
	// refcounted and recycled through opFree, and the entry barrier reuses
	// its waiter list, so a steady-state collective allocates nothing.
	arrived int
	op      *pendingOp
	barrier *sim.Barrier
	opFree  []*pendingOp
}

type pendingOp struct {
	users int         // ranks still inside the collective call
	sizes [][]float64 // [rank][dst] -> send bytes (hierarchical schedules)
}

// New creates a communicator over every fabric endpoint. On a machine of
// more than one node the all-to-all runs hierarchically: an intra-node
// exchange over NVLink, a rail-aligned inter-node exchange over the NICs,
// then an intra-node redistribution. fab must be wired over net's Cluster
// topology; a mismatched fabric/cluster or invalid parameters come back as
// an error, so misconfiguration surfaces before any simulated process
// starts.
func New(env *sim.Env, fab *nvlink.Fabric, params Params, net *fabric.Interconnect) (*Comm, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	n := fab.NumGPUs()
	if n != net.Cluster().NumGPUs() {
		return nil, fmt.Errorf("collective: NVLink fabric has %d GPUs but the cluster %d", n, net.Cluster().NumGPUs())
	}
	c := &Comm{
		env:     env,
		fabric:  fab,
		params:  params,
		net:     net,
		volume:  &trace.VolumeTrace{},
		barrier: sim.NewBarrier(env, n),
	}
	if c.hierarchical() {
		c.hier = make([]hierScratch, n)
	}
	return c, nil
}

// NumRanks returns the number of participants.
func (c *Comm) NumRanks() int { return c.fabric.NumGPUs() }

// Params returns the protocol parameters.
func (c *Comm) Params() Params { return c.params }

// Volume returns the communicator's cumulative volume trace (bytes
// attributed uniformly over each collective's transfer window — the paper's
// own convention for plotting the baseline's communication volume).
func (c *Comm) Volume() *trace.VolumeTrace { return c.volume }

// pairBandwidth returns the effective rate from src to dst inside a
// collective.
func (c *Comm) pairBandwidth(src, dst int) float64 {
	raw := c.fabric.PairBandwidth(src, dst)
	if c.params.ChannelBandwidth < raw {
		return c.params.ChannelBandwidth
	}
	return raw
}

// TransferTime returns the protocol time to move bytes from src to dst over
// NVLink. Cross-node hops are never priced here: a multi-node
// communicator's all-to-all carries them on the NIC phase of its
// hierarchical schedule.
func (c *Comm) TransferTime(src, dst int, bytes float64) sim.Duration {
	if bytes <= 0 {
		return 0
	}
	chunks := int(bytes) / c.params.ChunkBytes
	if int(bytes)%c.params.ChunkBytes != 0 {
		chunks++
	}
	if chunks == 0 {
		chunks = 1
	}
	return bytes/c.pairBandwidth(src, dst) + sim.Duration(sim.Duration(chunks)*c.params.PerChunkLatency)
}

// occupyWire places a collective's egress bytes on the physical pipe so
// concurrent one-sided traffic observes the contention, and returns the
// extra time (beyond the protocol's own pacing) the caller must wait when
// the wire is congested. On an idle link the wire drains far faster than
// the protocol paces (link rate vs channel bandwidth), so the excess is
// zero and the analytic timing is unchanged.
func (c *Comm) occupyWire(p *sim.Proc, src, dst int, bytes float64, protocol sim.Duration) sim.Duration {
	if bytes <= 0 {
		return protocol
	}
	drained := c.fabric.Pipe(src, dst).Offer(bytes)
	if wire := drained - p.Now(); wire > protocol {
		return wire
	}
	return protocol
}

// rendezvous blocks until all ranks have entered the collective. The first
// arriver installs the op descriptor; every arriver fills in its own part.
// It returns the shared op.
func (c *Comm) rendezvous(p *sim.Proc, install func(op *pendingOp)) *pendingOp {
	n := c.NumRanks()
	if c.op == nil {
		if k := len(c.opFree); k > 0 {
			c.op = c.opFree[k-1]
			c.opFree = c.opFree[:k-1]
		} else {
			c.op = &pendingOp{sizes: make([][]float64, n)}
		}
	}
	install(c.op)
	c.op.users++
	c.arrived++
	op := c.op
	if c.arrived == n {
		c.arrived = 0
		c.op = nil
	}
	c.barrier.Await(p)
	return op
}

// release drops one rank's hold on an op descriptor; the last release clears
// the caller-supplied size references and recycles the descriptor. Every
// collective releases its op on return, so a descriptor outlives the call
// of no rank — recycling never races a straggler still reading it.
func (c *Comm) release(op *pendingOp) {
	op.users--
	if op.users > 0 {
		return
	}
	for i := range op.sizes {
		op.sizes[i] = nil
	}
	c.opFree = append(c.opFree, op)
}

// AllToAllSingleSizes exchanges per-destination segments — PyTorch's
// all_to_all_single over a buffer pre-split into rank segments — priced
// from their sizes: sendBytes[dst] / recvBytes[src] give this rank's
// per-peer traffic (self entries are ignored — the local segment copy is
// part of the kernel's write traffic, not the wire). The collective models
// timing only; the caller moves the data. The receiving side holds its
// segments in rank order, which is why the baseline needs the
// unpack/rearrangement step afterwards (modelled in the retrieval backend,
// not here).
//
// The call blocks until this rank's transfers complete: entry rendezvous
// (bulk-synchronous start) + launch overhead + the slowest pairwise
// transfer this rank participates in (egress and ingress proceed on
// independent link directions and overlap).
func (c *Comm) AllToAllSingleSizes(p *sim.Proc, rank int, sendBytes, recvBytes []float64) {
	n := c.NumRanks()
	if len(sendBytes) != n || len(recvBytes) != n {
		panic(fmt.Sprintf("collective: rank %d alltoall-sizes with %d send / %d recv entries, want %d",
			rank, len(sendBytes), len(recvBytes), n))
	}
	hier := c.hierarchical()
	op := c.rendezvous(p, func(op *pendingOp) {
		if hier {
			op.sizes[rank] = sendBytes
		}
	})
	if hier {
		c.hierAllToAll(p, rank, op) // releases op after reading sizes
		return
	}
	c.release(op)
	p.Wait(c.params.LaunchOverhead)
	start := p.Now()
	var worst sim.Duration
	var egress float64
	for peer := 0; peer < n; peer++ {
		if peer == rank {
			continue
		}
		out := c.occupyWire(p, rank, peer, sendBytes[peer], c.TransferTime(rank, peer, sendBytes[peer]))
		in := c.TransferTime(peer, rank, recvBytes[peer])
		if out > worst {
			worst = out
		}
		if in > worst {
			worst = in
		}
		egress += sendBytes[peer]
	}
	if worst > 0 {
		c.volume.Add(start, start+worst, egress)
	}
	p.Wait(worst)
}
