package gpu

import (
	"fmt"

	"pgasemb/internal/sim"
)

// Device is one simulated GPU: an ID, a parameter set, a memory allocator
// and any number of in-order streams.
type Device struct {
	env    *sim.Env
	id     int
	params Params

	slow float64 // straggler slowdown factor on kernel costs (1 = healthy)

	allocated int64
	buffers   map[string]*Buffer
	streams   []*Stream
}

// Buffer is a named device-memory allocation. It carries no storage — the
// functional data lives in tensors — only capacity accounting, mirroring how
// the paper's strong-scaling configuration is bounded by the 32 GB card.
type Buffer struct {
	name  string
	bytes int64
}

// NewDevice returns a device with the given ID and parameters.
func NewDevice(env *sim.Env, id int, params Params) *Device {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	return &Device{
		env:     env,
		id:      id,
		params:  params,
		slow:    1,
		buffers: make(map[string]*Buffer),
	}
}

// SetSlowdown scales every kernel cost on the device by factor — the
// fault-injection hook for straggler GPUs (thermal throttling, ECC retirement
// pressure, a noisy neighbour on the host). A factor of 1 restores full speed
// and is exact: cost*1.0 is the same IEEE-754 value as cost, so a device that
// was never slowed is bit-identical to one without the hook. Factors below 1
// (a device mysteriously faster than its parameters) are rejected.
func (d *Device) SetSlowdown(factor float64) {
	if factor < 1 {
		panic(fmt.Sprintf("gpu%d: slowdown factor %g below 1", d.id, factor))
	}
	d.slow = factor
}

// Slowdown returns the current straggler factor (1 = healthy).
func (d *Device) Slowdown() float64 { return d.slow }

// ID returns the device ordinal.
func (d *Device) ID() int { return d.id }

// Params returns the device parameter set.
func (d *Device) Params() Params { return d.params }

// Env returns the simulation environment.
func (d *Device) Env() *sim.Env { return d.env }

// Alloc reserves bytes of device memory under the given name. It returns an
// error when the device would exceed capacity — the same constraint that
// shaped the paper's strong-scaling configuration (96 tables ≈ 24.6 GB on a
// 32 GB card).
func (d *Device) Alloc(name string, bytes int64) (*Buffer, error) {
	if bytes < 0 {
		return nil, fmt.Errorf("gpu%d: negative allocation %d for %q", d.id, bytes, name)
	}
	if _, exists := d.buffers[name]; exists {
		return nil, fmt.Errorf("gpu%d: allocation %q already exists", d.id, name)
	}
	if d.allocated+bytes > d.params.MemoryCapacity {
		return nil, fmt.Errorf("gpu%d: out of memory: %q needs %d bytes, %d of %d in use",
			d.id, name, bytes, d.allocated, d.params.MemoryCapacity)
	}
	b := &Buffer{name: name, bytes: bytes}
	d.buffers[name] = b
	d.allocated += bytes
	return b, nil
}

// Bytes returns the buffer size.
func (b *Buffer) Bytes() int64 { return b.bytes }

// Name returns the buffer name.
func (b *Buffer) Name() string { return b.name }

// NewStream creates an in-order execution stream on the device
// (cudaStreamCreateWithFlags in the paper's Listing 2).
func (d *Device) NewStream(name string) *Stream {
	s := &Stream{dev: d, name: name}
	d.streams = append(d.streams, s)
	return s
}

// Stream returns the named stream, creating it on first use. Backends call
// it once per batch: reusing the in-order queue across batches models a
// long-lived CUDA stream and keeps the per-batch hot path allocation-free
// (a fresh stream per batch would also grow the device's stream list
// without bound over a long serving run).
func (d *Device) Stream(name string) *Stream {
	for _, s := range d.streams {
		if s.name == name {
			return s
		}
	}
	return d.NewStream(name)
}

// Stream is an in-order work queue on a device. Work items enqueue
// host-side (costing launch overhead on the caller) and run back-to-back on
// the device; Synchronize blocks the calling process until the queue drains,
// costing the host-side sync overhead on top.
type Stream struct {
	dev       *Device
	name      string
	busyUntil sim.Time
}

// Name returns the stream name.
func (s *Stream) Name() string { return s.name }

// Device returns the owning device.
func (s *Stream) Device() *Device { return s.dev }

// BusyUntil returns when the last enqueued work item finishes.
func (s *Stream) BusyUntil() sim.Time { return s.busyUntil }

// Launch enqueues a kernel of the given duration. The calling process pays
// the launch overhead; the kernel itself starts when the stream is free and
// runs without blocking the caller (asynchronous launch semantics). It
// returns the kernel's (start, end) interval.
func (s *Stream) Launch(p *sim.Proc, d sim.Duration) (start, end sim.Time) {
	if d < 0 {
		panic(fmt.Sprintf("gpu%d/%s: negative kernel duration %g", s.dev.id, s.name, d))
	}
	p.Wait(s.dev.params.KernelLaunch) // host-side cost
	start = p.Now()
	if s.busyUntil > start {
		start = s.busyUntil
	}
	end = start + d
	s.busyUntil = end
	return start, end
}

// Synchronize blocks the calling process until the stream drains, then pays
// the host-side synchronisation overhead.
func (s *Stream) Synchronize(p *sim.Proc) {
	p.WaitUntil(s.busyUntil)
	p.Wait(s.dev.params.StreamSync)
}
