package pgas

import (
	"fmt"

	"pgasemb/internal/fabric"
	"pgasemb/internal/sim"
)

// ProxyConfig tunes the per-PE inter-node proxy of a runtime.
//
// Real NVSHMEM cannot issue device stores across nodes: remote-node transfers
// are delegated to a CPU proxy thread that drains a staging buffer onto the
// NIC (the IBRC transport). The simulated proxy mirrors that boundary —
// same-node stores keep the direct NVLink path, while stores to remote-node
// PEs accumulate in a per-destination-node staging buffer that is flushed as
// one coalesced NIC message when it reaches StagingBytes of payload, when
// DrainInterval has elapsed since it became non-empty, or at Quiet.
type ProxyConfig struct {
	// StagingBytes is the per-destination-node staging-buffer size: a
	// buffer reaching this many pending payload bytes flushes immediately.
	StagingBytes int

	// DrainInterval bounds how long pending bytes may sit in a staging
	// buffer before being flushed anyway. Zero disables the timer (buffers
	// then flush only on the size threshold and at Quiet).
	DrainInterval sim.Duration
}

// DefaultProxyConfig returns the proxy tuning used by the multi-node
// experiments: 64 KiB staging buffers drained at least every 20 us.
func DefaultProxyConfig() ProxyConfig {
	return ProxyConfig{StagingBytes: 64 << 10, DrainInterval: 20 * sim.Microsecond}
}

// Validate reports whether the configuration is usable.
func (c ProxyConfig) Validate() error {
	switch {
	case c.StagingBytes <= 0:
		return fmt.Errorf("pgas: proxy StagingBytes must be positive, got %d", c.StagingBytes)
	case c.DrainInterval < 0:
		return fmt.Errorf("pgas: proxy DrainInterval must be non-negative, got %g", c.DrainInterval)
	}
	return nil
}

// proxy is one PE's inter-node forwarding engine on the sim clock.
type proxy struct {
	pe  *PE
	net *fabric.Interconnect
	cfg ProxyConfig

	bufs         []proxyBuf // one staging buffer per destination node
	lastDelivery sim.Time
	flushes      int64
}

type proxyBuf struct {
	pending    int
	timerArmed bool
	timerFn    func() // cached drain-timer closure: staging never allocates
}

// init wires pe's proxy over bufs, one staging buffer per node. Stores to
// pe's own node never stage, so its buffer gets no drain timer.
func (px *proxy) init(pe *PE, net *fabric.Interconnect, cfg ProxyConfig, bufs []proxyBuf) {
	*px = proxy{pe: pe, net: net, cfg: cfg, bufs: bufs}
	own := net.Cluster().Node(pe.id)
	for node := range px.bufs {
		if node == own {
			continue
		}
		node := node
		px.bufs[node].timerFn = func() {
			b := &px.bufs[node]
			b.timerArmed = false
			if b.pending > 0 {
				px.flush(node)
			}
		}
	}
}

// stage queues payload bytes destined for a remote node. The caller has
// already accounted the put; the proxy only decides when the bytes hit the
// NIC. Returns the current time — delivery is asynchronous, observed via
// Quiet.
func (px *proxy) stage(dstNode, payload int) sim.Time {
	now := px.pe.rt.env.Now()
	if payload <= 0 {
		return now
	}
	b := &px.bufs[dstNode]
	if b.pending == 0 && px.cfg.DrainInterval > 0 && !b.timerArmed {
		b.timerArmed = true
		px.pe.rt.env.After(px.cfg.DrainInterval, b.timerFn)
	}
	b.pending += payload
	if b.pending >= px.cfg.StagingBytes {
		px.flush(dstNode)
	}
	return now
}

// flush hands the pending bucket for dstNode to the NIC as one coalesced
// send (fragmented per NICParams.MaxMessage, one header per fragment). When
// fault hooks are installed a lost delivery is retransmitted after the retry
// timeout (exponential backoff per attempt, re-occupying the wire each
// time); Quiet observes the final delivery through lastDelivery, so the
// completion semantics hold under loss.
func (px *proxy) flush(dstNode int) {
	b := &px.bufs[dstNode]
	payload := b.pending
	b.pending = 0
	if payload == 0 {
		return
	}
	seq := px.flushes
	issued := px.pe.rt.env.Now()
	delivered := px.net.SendAt(issued, px.pe.id, dstNode, payload)
	px.pe.wireBytes += px.net.NIC().WireBytes(payload)
	px.pe.counter.Add(issued, delivered, float64(payload))
	if h := px.pe.rt.hooks; h != nil && h.Drop != nil {
		timeout := retryTimeout
		for attempt := 0; h.Drop(px.pe.id, dstNode, seq, attempt); attempt++ {
			px.pe.drops++
			if attempt+1 >= maxAttempts {
				px.pe.exhausted++
				break
			}
			retryAt := delivered + timeout
			delivered = px.net.SendAt(retryAt, px.pe.id, dstNode, payload)
			px.pe.wireBytes += px.net.NIC().WireBytes(payload)
			px.pe.counter.Add(retryAt, delivered, float64(payload))
			px.pe.retries++
			timeout *= retryBackoff
		}
	}
	if delivered > px.lastDelivery {
		px.lastDelivery = delivered
	}
	px.flushes++
}

// drain force-flushes every staging buffer — the proxy half of Quiet.
func (px *proxy) drain() {
	for node := range px.bufs {
		px.flush(node)
	}
}
