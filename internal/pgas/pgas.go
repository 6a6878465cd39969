// Package pgas implements the PGAS-style one-sided communication runtime the
// paper builds its fused embedding-retrieval backend on: NVSHMEM-like
// remote stores ("RDMA writes issued by CUDA threads"), quiet/barrier
// completion semantics, per-PE communication counters (the instrumentation
// behind Figures 7 and 10), and the asynchronous aggregator sketched in the
// paper's future-work section.
//
// Each GPU is a processing element (PE). The runtime models only the
// timing of a remote store — the caller moves the data — as a message on the
// per-direction NVLink pipe: payload plus per-fragment header drains at link
// bandwidth, concurrently with whatever compute the issuing kernel continues
// to do. Quiet blocks until all of a PE's outstanding
// stores have drained, exactly the semantics the fused kernel relies on
// before the EMB layer is declared complete.
package pgas

import (
	"fmt"

	"pgasemb/internal/fabric"
	"pgasemb/internal/nvlink"
	"pgasemb/internal/sim"
	"pgasemb/internal/trace"
)

// Runtime is the communication context shared by all PEs across every node
// of one machine.
type Runtime struct {
	env    *sim.Env
	fabric *nvlink.Fabric
	pes    []PE
	hooks  *FaultHooks // nil = perfect delivery
}

// FaultHooks injects delivery faults into the runtime's proxy layer.
// One-sided stores have no acknowledgement visible to the issuing kernel, so
// the quiet/flush boundary is exactly where loss must be detected and
// retried (as the NVSHMEM system analyses observe): a dropped coalesced NIC
// message is retransmitted after a timeout, with exponential backoff, and
// Quiet only returns once the retransmission has landed.
type FaultHooks struct {
	// Drop reports whether the seq-th coalesced flush from PE pe to dstNode
	// is lost on the given (0-based) delivery attempt. It must be a pure
	// function of its arguments so same-seed runs replay identically.
	Drop func(pe, dstNode int, seq int64, attempt int) bool
}

// The proxy's delivery-loss recovery: a lost message is retransmitted
// retryTimeout after its expected delivery, the timeout doubles after every
// failed attempt, and after maxAttempts attempts the message is declared
// delivered by the out-of-band recovery path (counted in RetriesExhausted).
const (
	retryTimeout = 50 * sim.Microsecond
	retryBackoff = 2
	maxAttempts  = 16
)

// SetFaultHooks installs (or, with nil, removes) delivery-fault injection.
// Hooks only affect inter-node proxy traffic; intra-node NVLink stores are
// load/store operations with hardware-level delivery.
func (rt *Runtime) SetFaultHooks(h *FaultHooks) { rt.hooks = h }

// New creates a runtime with one PE per fabric endpoint. PEs reach
// same-node peers through direct device stores on the NVLink fabric, while
// stores to remote-node PEs are routed through a per-PE proxy that
// coalesces them into NIC messages on net (the NVSHMEM proxy/IBRC
// boundary). fab must be wired over net's Cluster topology.
func New(env *sim.Env, fab *nvlink.Fabric, net *fabric.Interconnect, cfg ProxyConfig) *Runtime {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := fab.NumGPUs()
	if n != net.Cluster().NumGPUs() {
		panic(fmt.Sprintf("pgas: NVLink fabric has %d GPUs but the cluster %d", n, net.Cluster().NumGPUs()))
	}
	// One allocation each for the PEs and every proxy's staging buffers:
	// every run a sweep builds, and every serving session, wires a fresh
	// runtime.
	rt := &Runtime{env: env, fabric: fab, pes: make([]PE, n)}
	nodes := net.Cluster().Nodes
	bufs := make([]proxyBuf, n*nodes)
	for i := range rt.pes {
		pe := &rt.pes[i]
		pe.rt, pe.id = rt, i
		pe.proxy.init(pe, net, cfg, bufs[i*nodes:(i+1)*nodes:(i+1)*nodes])
	}
	return rt
}

// NumPEs returns the number of processing elements.
func (rt *Runtime) NumPEs() int { return len(rt.pes) }

// PE returns processing element i.
func (rt *Runtime) PE(i int) *PE {
	if i < 0 || i >= len(rt.pes) {
		panic(fmt.Sprintf("pgas: PE %d out of range (n=%d)", i, len(rt.pes)))
	}
	return &rt.pes[i]
}

// Fabric returns the underlying interconnect.
func (rt *Runtime) Fabric() *nvlink.Fabric { return rt.fabric }

// NewBarrier returns a barrier across all PEs (each PE's process calls
// Await once per round).
func (rt *Runtime) NewBarrier() *sim.Barrier {
	return sim.NewBarrier(rt.env, len(rt.pes))
}

// TotalTrace merges all PE counters into one volume trace — the machine-wide
// communication-volume-over-time curve of Figures 7 and 10.
func (rt *Runtime) TotalTrace() *trace.VolumeTrace {
	merged := &trace.VolumeTrace{}
	for i := range rt.pes {
		for _, iv := range rt.pes[i].counter.Intervals() {
			merged.Add(iv.Start, iv.End, iv.Bytes)
		}
	}
	return merged
}

// PE is one processing element (GPU) of the partitioned global address
// space.
type PE struct {
	rt    *Runtime
	id    int
	proxy proxy // inter-node forwarding engine

	puts         int64
	payloadBytes float64
	wireBytes    float64
	drops        int64 // delivery attempts lost to injected faults
	retries      int64 // retransmissions issued by the proxy
	exhausted    int64 // messages that hit maxAttempts
	counter      trace.VolumeTrace
}

// ID returns the PE ordinal.
func (pe *PE) ID() int { return pe.id }

// Puts returns the number of one-sided stores issued by this PE.
func (pe *PE) Puts() int64 { return pe.puts }

// PayloadBytes returns the cumulative payload issued by this PE.
func (pe *PE) PayloadBytes() float64 { return pe.payloadBytes }

// WireBytes returns the cumulative on-the-wire bytes (payload + headers).
func (pe *PE) WireBytes() float64 { return pe.wireBytes }

// Drops returns how many delivery attempts were lost to injected faults.
func (pe *PE) Drops() int64 { return pe.drops }

// Flushes returns how many coalesced NIC messages this PE's proxy has sent:
// the sequence number its next one carries.
func (pe *PE) Flushes() int64 { return pe.proxy.flushes }

// Retries returns how many retransmissions this PE's proxy issued.
func (pe *PE) Retries() int64 { return pe.retries }

// RetriesExhausted returns how many messages hit the attempt cap and were
// recovered out of band.
func (pe *PE) RetriesExhausted() int64 { return pe.exhausted }

// Counter returns this PE's communication-volume trace.
func (pe *PE) Counter() *trace.VolumeTrace { return &pe.counter }

// PutBytes issues a one-sided store of payload bytes to target and returns
// its simulated delivery time. Local "stores" (target == pe) are plain
// writes that never touch the fabric; the caller's kernel cost model already
// accounts for them.
func (pe *PE) PutBytes(target *PE, payload int) sim.Time {
	if payload < 0 {
		panic(fmt.Sprintf("pgas: negative payload %d", payload))
	}
	if target.id == pe.id {
		return pe.rt.env.Now()
	}
	return pe.accountPut(target, payload)
}

// PutVectors accounts count one-sided stores of vecBytes payload each to
// target, offered to the pipe as one aggregate (identical wire bytes, issue
// counts and drain time as count individual PutBytes calls when vecBytes ==
// MaxPayload — which holds for the paper's d=64 vectors). This is the fast
// path the paper-scale timing simulations use: one call per (chunk,
// destination) instead of one per output vector.
func (pe *PE) PutVectors(target *PE, count, vecBytes int) sim.Time {
	if count < 0 || vecBytes < 0 {
		panic(fmt.Sprintf("pgas: PutVectors(count=%d, vecBytes=%d)", count, vecBytes))
	}
	if count == 0 || target.id == pe.id {
		return pe.rt.env.Now()
	}
	if dn := pe.remoteNode(target); dn >= 0 {
		// Per-vector staging: the proxy sees the same store sequence as
		// count individual puts, so its coalescing boundaries (and hence
		// NIC timing) match theirs exactly.
		pe.puts += int64(count)
		pe.payloadBytes += float64(float64(count) * float64(vecBytes))
		last := pe.rt.env.Now()
		for i := 0; i < count; i++ {
			last = pe.proxy.stage(dn, vecBytes)
		}
		return last
	}
	wire := float64(float64(count) * pe.rt.fabric.WireBytes(vecBytes))
	pipe := pe.rt.fabric.Pipe(pe.id, target.id)
	issued := pe.rt.env.Now()
	delivered := pipe.Offer(wire)
	payload := float64(float64(count) * float64(vecBytes))
	pe.puts += int64(count)
	pe.payloadBytes += payload
	pe.wireBytes += wire
	pe.counter.Add(issued, delivered, payload)
	return delivered
}

// remoteNode returns the destination node index when target lives on a
// different node, and -1 for same-node targets.
func (pe *PE) remoteNode(target *PE) int {
	cl := pe.proxy.net.Cluster()
	if dn := cl.Node(target.id); dn != cl.Node(pe.id) {
		return dn
	}
	return -1
}

func (pe *PE) accountPut(target *PE, payload int) sim.Time {
	if dn := pe.remoteNode(target); dn >= 0 {
		pe.puts++
		pe.payloadBytes += float64(payload)
		return pe.proxy.stage(dn, payload)
	}
	wire := pe.rt.fabric.WireBytes(payload)
	pipe := pe.rt.fabric.Pipe(pe.id, target.id)
	issued := pe.rt.env.Now()
	delivered := pipe.Offer(wire)
	pe.puts++
	pe.payloadBytes += float64(payload)
	pe.wireBytes += wire
	pe.counter.Add(issued, delivered, float64(payload))
	return delivered
}

// Quiet blocks the calling process until every store this PE has issued so
// far has drained onto the wire — nvshmem_quiet semantics, the completion
// point at the end of the paper's fused kernel.
func (pe *PE) Quiet(p *sim.Proc) {
	pe.proxy.drain()
	worst := pe.proxy.lastDelivery
	for dst := 0; dst < pe.rt.NumPEs(); dst++ {
		if dst == pe.id {
			continue
		}
		if pe.rt.fabric.Topology().Links(pe.id, dst) <= 0 {
			continue
		}
		if b := pe.rt.fabric.Pipe(pe.id, dst).BusyUntil(); b > worst {
			worst = b
		}
	}
	p.WaitUntil(worst)
}
