// Package trace implements the measurement instruments of the paper's
// evaluation: communication-volume-over-time counters (the "communication
// counter read every hundred GPU clock cycles" behind Figures 7 and 10) and
// runtime component breakdowns (Figures 6 and 9).
package trace

import (
	"fmt"

	"pgasemb/internal/sim"
)

// Interval attributes a number of bytes uniformly to a time window, the same
// linear-interpolation convention the paper uses to plot the baseline's
// communication volume.
type Interval struct {
	Start sim.Time
	End   sim.Time
	Bytes float64
}

// VolumeTrace accumulates communication volume attributed to time intervals
// and reconstructs cumulative or per-bin series from them.
type VolumeTrace struct {
	intervals []Interval
}

// Add attributes bytes uniformly to [start, end]. A zero-length window is
// treated as an instantaneous delivery at start.
func (v *VolumeTrace) Add(start, end sim.Time, bytes float64) {
	if end < start {
		panic(fmt.Sprintf("trace: interval ends (%v) before it starts (%v)", end, start))
	}
	if bytes < 0 {
		panic(fmt.Sprintf("trace: negative volume %g", bytes))
	}
	if bytes == 0 {
		return
	}
	v.intervals = append(v.intervals, Interval{Start: start, End: end, Bytes: bytes})
}

// Reset empties the trace in place, keeping its capacity for reuse. Slices
// previously returned by Intervals are overwritten by later Adds.
func (v *VolumeTrace) Reset() { v.intervals = v.intervals[:0] }

// Intervals returns the raw attributed intervals (shared slice; callers
// must not mutate).
func (v *VolumeTrace) Intervals() []Interval { return v.intervals }

// Total returns the total attributed volume.
func (v *VolumeTrace) Total() float64 {
	var sum float64
	for _, iv := range v.intervals {
		sum += iv.Bytes
	}
	return sum
}

// CumulativeAt returns the volume delivered by time t under uniform
// attribution within each interval.
func (v *VolumeTrace) CumulativeAt(t sim.Time) float64 {
	var sum float64
	for _, iv := range v.intervals {
		switch {
		case t >= iv.End:
			sum += iv.Bytes
		case t <= iv.Start:
		default:
			sum += iv.Bytes * (t - iv.Start) / (iv.End - iv.Start)
		}
	}
	return sum
}

// Point is one sample of a reconstructed series.
type Point struct {
	T sim.Time
	V float64
}

// CumulativeSeries samples CumulativeAt at n+1 evenly spaced points spanning
// [t0, t1].
func (v *VolumeTrace) CumulativeSeries(t0, t1 sim.Time, n int) []Point {
	if n <= 0 {
		panic("trace: series needs at least one bin")
	}
	if t1 < t0 {
		panic("trace: series window inverted")
	}
	pts := make([]Point, n+1)
	for i := 0; i <= n; i++ {
		t := t0 + (t1-t0)*sim.Time(i)/sim.Time(n)
		pts[i] = Point{T: t, V: v.CumulativeAt(t)}
	}
	return pts
}

// RateSeries returns per-bin delivered volume over n bins spanning [t0, t1]
// — the "communication volume over time" curves of Figures 7 and 10.
func (v *VolumeTrace) RateSeries(t0, t1 sim.Time, n int) []Point {
	cum := v.CumulativeSeries(t0, t1, n)
	pts := make([]Point, n)
	for i := 0; i < n; i++ {
		pts[i] = Point{T: cum[i+1].T, V: cum[i+1].V - cum[i].V}
	}
	return pts
}

// Component is one named slice of a runtime breakdown.
type Component struct {
	Name     string
	Duration sim.Duration
}

// Breakdown is an ordered runtime decomposition (Figures 6 and 9 bars).
type Breakdown struct {
	components []Component
}

// Add appends a named component; negative durations panic.
func (b *Breakdown) Add(name string, d sim.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("trace: negative component %q = %g", name, d))
	}
	b.components = append(b.components, Component{Name: name, Duration: d})
}

// Accumulate adds d to the named component, creating it if absent
// (preserving first-insertion order).
func (b *Breakdown) Accumulate(name string, d sim.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("trace: negative component %q = %g", name, d))
	}
	for i := range b.components {
		if b.components[i].Name == name {
			b.components[i].Duration += d
			return
		}
	}
	b.components = append(b.components, Component{Name: name, Duration: d})
}

// Get returns the duration of the named component (zero if absent).
func (b *Breakdown) Get(name string) sim.Duration {
	for _, c := range b.components {
		if c.Name == name {
			return c.Duration
		}
	}
	return 0
}

// Components returns the ordered components.
func (b *Breakdown) Components() []Component { return b.components }

// Total returns the sum of all components.
func (b *Breakdown) Total() sim.Duration {
	var sum sim.Duration
	for _, c := range b.components {
		sum += c.Duration
	}
	return sum
}

// MergeMax returns a breakdown whose components are the element-wise maxima
// across the inputs — used to aggregate per-GPU breakdowns into the
// slowest-GPU view the paper plots.
func MergeMax(bs ...*Breakdown) *Breakdown {
	out := &Breakdown{}
	seen := map[string]bool{}
	var order []string
	for _, b := range bs {
		for _, c := range b.components {
			if !seen[c.Name] {
				seen[c.Name] = true
				order = append(order, c.Name)
			}
		}
	}
	// Deterministic: insertion order of first appearance; map only marks.
	for _, name := range order {
		var worst sim.Duration
		for _, b := range bs {
			if d := b.Get(name); d > worst {
				worst = d
			}
		}
		out.Add(name, worst)
	}
	return out
}
