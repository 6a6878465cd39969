package pgas

import (
	"fmt"

	"pgasemb/internal/sim"
)

// Aggregator implements the asynchronous communication aggregator from the
// paper's future-work section (after Chen et al., SC '22): instead of each
// one-sided store paying its own message header, stores to the same
// destination PE accumulate in a per-destination buffer that is flushed as a
// single message when it reaches FlushBytes of payload or has waited
// MaxWait since its first pending store. The paper proposes exactly this as
// the drop-in change — aggregator.store(dst, value, pe) instead of
// sum.store(dst, pe) — to make the PGAS scheme viable on lower-bandwidth,
// higher-latency inter-node links.
type Aggregator struct {
	pe         *PE
	flushBytes int
	maxWait    sim.Duration

	pending []aggBucket // one per destination PE
	flushes int64
}

type aggBucket struct {
	payload    int
	oldestAt   sim.Time
	timerArmed bool
	gen        int // invalidates stale timers after a flush
}

// NewAggregator returns an aggregator for stores issued by pe. flushBytes is
// the payload size that triggers an immediate flush; maxWait bounds how long
// a pending byte may wait before being flushed anyway.
func NewAggregator(pe *PE, flushBytes int, maxWait sim.Duration) *Aggregator {
	if flushBytes <= 0 {
		panic(fmt.Sprintf("pgas: aggregator flushBytes must be positive, got %d", flushBytes))
	}
	if maxWait < 0 {
		panic(fmt.Sprintf("pgas: aggregator maxWait must be non-negative, got %g", maxWait))
	}
	return &Aggregator{
		pe:         pe,
		flushBytes: flushBytes,
		maxWait:    maxWait,
		pending:    make([]aggBucket, pe.rt.NumPEs()),
	}
}

// StoreBytes issues an aggregated one-sided store of payload bytes: they
// accumulate in target's bucket, and the wire message is deferred until the
// bucket flushes. Local stores bypass aggregation entirely.
func (a *Aggregator) StoreBytes(target *PE, payload int) {
	if payload < 0 {
		panic(fmt.Sprintf("pgas: aggregated StoreBytes(%d)", payload))
	}
	if payload == 0 || target.id == a.pe.id {
		return
	}
	b := &a.pending[target.id]
	if b.payload == 0 {
		b.oldestAt = a.pe.rt.env.Now()
		a.armTimer(target.id)
	}
	b.payload += payload
	if b.payload >= a.flushBytes {
		a.flush(target.id)
	}
}

func (a *Aggregator) armTimer(dst int) {
	b := &a.pending[dst]
	b.timerArmed = true
	gen := b.gen
	a.pe.rt.env.After(a.maxWait, func() {
		bb := &a.pending[dst]
		if bb.gen == gen && bb.payload > 0 {
			a.flush(dst)
		}
	})
}

// flush sends the pending bucket for dst as one message (one header).
func (a *Aggregator) flush(dst int) {
	b := &a.pending[dst]
	payload := b.payload
	b.payload = 0
	b.timerArmed = false
	b.gen++
	if payload == 0 {
		return
	}
	target := a.pe.rt.PE(dst)
	if dn := a.pe.remoteNode(target); dn >= 0 {
		// Cross-node buckets hand their whole payload to the NIC proxy in
		// one piece; the proxy decides the NIC message boundaries.
		a.pe.puts++
		a.pe.payloadBytes += float64(payload)
		a.pe.proxy.stage(dn, payload)
		a.flushes++
		return
	}
	// One header regardless of payload size: the aggregator's entire win.
	wire := float64(payload + a.pe.rt.fabric.Params().HeaderBytes)
	pipe := a.pe.rt.fabric.Pipe(a.pe.id, target.id)
	issued := a.pe.rt.env.Now()
	delivered := pipe.Offer(wire)
	a.pe.puts++
	a.pe.payloadBytes += float64(payload)
	a.pe.wireBytes += wire
	a.pe.counter.Add(issued, delivered, float64(payload))
	a.flushes++
}

// FlushAll forces out every pending bucket — called before Quiet at the end
// of a kernel so no bytes are stranded.
func (a *Aggregator) FlushAll() {
	for dst := range a.pending {
		a.flush(dst)
	}
}

// Flushes returns how many wire messages the aggregator has sent.
func (a *Aggregator) Flushes() int64 { return a.flushes }

// PendingBytes returns the total payload currently buffered.
func (a *Aggregator) PendingBytes() int {
	var sum int
	for i := range a.pending {
		sum += a.pending[i].payload
	}
	return sum
}
