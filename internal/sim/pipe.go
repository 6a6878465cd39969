package sim

import "fmt"

// Pipe is a rate-limited, FIFO fluid channel: the building block for a
// simulated interconnect link direction. Transfers offered to the pipe
// occupy it for bytes/bandwidth, one after another; delivery completes one
// wire latency after the last byte leaves (latency pipelines across
// messages, LogGP-style, so a stream of small messages costs the same link
// occupancy as one large one).
//
// A Pipe does not block the offering process: Offer returns the simulated
// completion time immediately, which models asynchronous one-sided traffic
// (PGAS remote stores) as well as DMA engines driving collective transfers.
// Callers that need blocking semantics wait on the returned time.
type Pipe struct {
	env       *Env
	name      string
	bandwidth float64  // bytes per second
	latency   Duration // fixed per-transfer latency (wire + protocol)

	scale float64 // degrade factor on bandwidth (1 = healthy)

	busyUntil  Time // when the last queued transfer finishes draining
	totalBytes float64
	transfers  int64
}

// NewPipe returns a pipe with the given bandwidth (bytes/second) and fixed
// per-transfer latency.
func NewPipe(e *Env, name string, bandwidth float64, latency Duration) *Pipe {
	if bandwidth <= 0 {
		panic(fmt.Sprintf("sim: pipe %q with non-positive bandwidth %g", name, bandwidth))
	}
	if latency < 0 {
		panic(fmt.Sprintf("sim: pipe %q with negative latency %g", name, latency))
	}
	return &Pipe{env: e, name: name, bandwidth: bandwidth, latency: latency, scale: 1}
}

// SetDegrade scales the pipe's effective bandwidth by factor — the fault
// injection hook for degraded or flapping links. A factor of 1 restores full
// health and is exact: bytes/(bandwidth*1.0) is the same IEEE-754 value as
// bytes/bandwidth, so a never-degraded pipe is bit-identical to one that
// never had the hook. Factors must be positive; outages are modelled as a
// tiny residual factor so queued traffic still terminates.
func (p *Pipe) SetDegrade(factor float64) {
	if factor <= 0 {
		panic(fmt.Sprintf("sim: pipe %q degraded to non-positive factor %g", p.name, factor))
	}
	p.scale = factor
}

// Name returns the pipe's name.
func (p *Pipe) Name() string { return p.name }

// Bandwidth returns the pipe's drain rate in bytes per second.
func (p *Pipe) Bandwidth() float64 { return p.bandwidth }

// Offer enqueues a transfer of the given number of bytes starting no earlier
// than now, and returns the simulated time at which the last byte is
// delivered. Zero-byte transfers complete after the pipe latency alone.
func (p *Pipe) Offer(bytes float64) Time {
	if bytes < 0 {
		panic(fmt.Sprintf("sim: pipe %q offered negative bytes %g", p.name, bytes))
	}
	return p.OfferAt(p.env.now, bytes)
}

// OfferAt is like Offer but the transfer may not start before readyAt (used
// when the payload only exists after some compute completes).
func (p *Pipe) OfferAt(readyAt Time, bytes float64) Time {
	if bytes < 0 {
		panic(fmt.Sprintf("sim: pipe %q offered negative bytes %g", p.name, bytes))
	}
	start := readyAt
	if start < p.env.now {
		start = p.env.now
	}
	if p.busyUntil > start {
		start = p.busyUntil
	}
	p.busyUntil = start + bytes/(p.bandwidth*p.scale)
	p.totalBytes += bytes
	p.transfers++
	return p.busyUntil + p.latency
}

// BusyUntil returns the time at which all currently queued transfers will
// have drained. If the pipe is idle it returns a time in the past (or now).
func (p *Pipe) BusyUntil() Time { return p.busyUntil }

// TotalBytes returns the cumulative bytes ever offered.
func (p *Pipe) TotalBytes() float64 { return p.totalBytes }

// Transfers returns the number of transfers ever offered.
func (p *Pipe) Transfers() int64 { return p.transfers }
