// Package nvlink models the GPU interconnect of the paper's DGX testbed: a
// set of point-to-point NVLink connections between GPU pairs, each direction
// an independent rate-limited channel. One-sided PGAS traffic streams
// through per-direction fluid pipes (internal/sim.Pipe) at raw link
// bandwidth minus per-message header overhead; the NCCL-like collective
// library (internal/collective) runs its protocol-limited schedule over the
// same topology.
package nvlink

import (
	"fmt"

	"pgasemb/internal/sim"
)

// Params describes the interconnect technology.
type Params struct {
	// LinkBandwidth is bytes/second per link per direction
	// (NVLink 2.0: 25 GB/s).
	LinkBandwidth float64

	// LinkLatency is the one-way message latency of the fabric.
	LinkLatency sim.Duration

	// HeaderBytes is the per-message protocol overhead of a one-sided
	// store. The paper measures communication volume in 256 B units (one
	// d=64 float32 embedding vector) and attributes the PGAS backend's
	// mild runtime growth to exactly this header tax on small messages.
	HeaderBytes int

	// MaxPayload is the largest single one-sided message payload; larger
	// puts are split and pay one header per fragment.
	MaxPayload int
}

// DefaultParams returns NVLink 2.0 (V100-generation) parameters.
func DefaultParams() Params {
	return Params{
		LinkBandwidth: 25e9,
		LinkLatency:   1.3 * sim.Microsecond,
		HeaderBytes:   32,
		MaxPayload:    256,
	}
}

// Validate reports whether the parameter set is usable.
func (p Params) Validate() error {
	switch {
	case p.LinkBandwidth <= 0:
		return fmt.Errorf("nvlink: LinkBandwidth must be positive")
	case p.LinkLatency < 0:
		return fmt.Errorf("nvlink: LinkLatency must be non-negative")
	case p.HeaderBytes < 0:
		return fmt.Errorf("nvlink: HeaderBytes must be non-negative")
	case p.MaxPayload <= 0:
		return fmt.Errorf("nvlink: MaxPayload must be positive")
	}
	return nil
}

// Topology describes which GPU pairs are wired together and with how many
// links.
type Topology interface {
	// NumGPUs returns the number of endpoints.
	NumGPUs() int
	// Links returns the number of NVLink links between a and b
	// (0 = not directly connected). Must be symmetric.
	Links(a, b int) int
}

// Fabric instantiates a topology as per-direction fluid pipes.
type Fabric struct {
	env    *sim.Env
	params Params
	topo   Topology
	pipes  [][]*sim.Pipe // pipes[src][dst]
}

// ValidateTopology checks a topology's wiring at construction time:
// positive GPU count, zero diagonal, no negative link counts, symmetric
// pairs. Topologies carrying their own Validate method (fabric.Cluster) are
// checked with it first, so a defective shape surfaces as a descriptive
// error instead of a wiring that panics or stays unconnected.
func ValidateTopology(topo Topology) error {
	if v, ok := topo.(interface{ Validate() error }); ok {
		if err := v.Validate(); err != nil {
			return err
		}
	}
	n := topo.NumGPUs()
	if n <= 0 {
		return fmt.Errorf("nvlink: topology with no GPUs (NumGPUs() = %d)", n)
	}
	for a := 0; a < n; a++ {
		if links := topo.Links(a, a); links != 0 {
			return fmt.Errorf("nvlink: GPU %d has %d self links, want 0", a, links)
		}
		for b := a + 1; b < n; b++ {
			ab, ba := topo.Links(a, b), topo.Links(b, a)
			if ab < 0 || ba < 0 {
				return fmt.Errorf("nvlink: negative link count between GPUs %d and %d", a, b)
			}
			if ab != ba {
				return fmt.Errorf("nvlink: asymmetric links between GPUs %d and %d: %d vs %d", a, b, ab, ba)
			}
		}
	}
	return nil
}

// NewFabric wires up the fabric, returning invalid parameters or topologies
// as errors. Unconnected pairs have no pipe; sending between them panics
// (this model has no routing — the paper's testbed is fully connected).
func NewFabric(env *sim.Env, params Params, topo Topology) (*Fabric, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if err := ValidateTopology(topo); err != nil {
		return nil, err
	}
	n := topo.NumGPUs()
	f := &Fabric{env: env, params: params, topo: topo, pipes: make([][]*sim.Pipe, n)}
	all := make([]*sim.Pipe, n*n) // one allocation for every row: a run wires a fresh fabric
	for src := 0; src < n; src++ {
		f.pipes[src] = all[src*n : (src+1)*n : (src+1)*n]
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			links := topo.Links(src, dst)
			if links <= 0 {
				continue
			}
			f.pipes[src][dst] = sim.NewPipe(env, fmt.Sprintf("nvlink-%d->%d", src, dst),
				float64(links)*params.LinkBandwidth, params.LinkLatency)
		}
	}
	return f, nil
}

// Params returns the fabric's link parameters.
func (f *Fabric) Params() Params { return f.params }

// NumGPUs returns the number of endpoints.
func (f *Fabric) NumGPUs() int { return len(f.pipes) }

// Topology returns the wiring description.
func (f *Fabric) Topology() Topology { return f.topo }

// Pipe returns the directional pipe from src to dst. It panics when the
// pair is not connected or src == dst — local traffic never touches the
// fabric.
func (f *Fabric) Pipe(src, dst int) *sim.Pipe {
	if src < 0 || dst < 0 || src >= len(f.pipes) || dst >= len(f.pipes) {
		panic(fmt.Sprintf("nvlink: pipe index out of range (%d -> %d)", src, dst))
	}
	p := f.pipes[src][dst]
	if p == nil {
		panic(fmt.Sprintf("nvlink: no link between GPU %d and GPU %d", src, dst))
	}
	return p
}

// PairBandwidth returns the raw per-direction bandwidth between src and dst.
func (f *Fabric) PairBandwidth(src, dst int) float64 {
	return f.Pipe(src, dst).Bandwidth()
}

// WireBytes returns the on-the-wire size of a one-sided message carrying
// payload bytes: each MaxPayload-sized fragment pays one header.
func (f *Fabric) WireBytes(payload int) float64 {
	if payload < 0 {
		panic(fmt.Sprintf("nvlink: negative payload %d", payload))
	}
	if payload == 0 {
		return float64(f.params.HeaderBytes)
	}
	fragments := (payload + f.params.MaxPayload - 1) / f.params.MaxPayload
	return float64(payload + fragments*f.params.HeaderBytes)
}

// SetLinkDegrade scales the bandwidth of the directed src->dst pipe by
// factor (1 = healthy) — the fault-injection hook for degraded or flapping
// links. Both directions of a pair degrade independently; callers wanting a
// symmetric fault set both. Unconnected pairs panic like Pipe does.
func (f *Fabric) SetLinkDegrade(src, dst int, factor float64) {
	f.Pipe(src, dst).SetDegrade(factor)
}

// TotalBytes returns the cumulative payload+header bytes offered across the
// whole fabric.
func (f *Fabric) TotalBytes() float64 {
	var sum float64
	for _, row := range f.pipes {
		for _, p := range row {
			if p != nil {
				sum += p.TotalBytes()
			}
		}
	}
	return sum
}
