package serve

import (
	"math"

	"pgasemb/internal/sim"
)

// Arrival selects the open-loop request arrival process.
type Arrival int

const (
	// Poisson arrivals: independent exponential gaps at the configured
	// mean rate — the classic open-loop serving assumption.
	Poisson Arrival = iota
	// Bursty arrivals: an on/off-modulated Poisson process. Each
	// BurstCycle spends 1/BurstFactor of its length in an "on" window at
	// BurstFactor times the configured rate and the rest silent, so the
	// MEAN rate matches Poisson while the instantaneous load spikes — the
	// flash-crowd shape that stresses the admission queue.
	Bursty
)

func (a Arrival) String() string {
	if a == Bursty {
		return "bursty"
	}
	return "poisson"
}

// expDraw samples an exponential gap with the given rate (1/mean seconds).
func expDraw(rng *sim.RNG, rate float64) sim.Duration {
	for {
		u := rng.Float64()
		if u > 0 {
			return sim.Duration(-math.Log(u) / rate)
		}
	}
}

// nextArrival returns the next request arrival time strictly after now.
func (c Config) nextArrival(rng *sim.RNG, now sim.Time) sim.Time {
	if c.Arrival == Poisson {
		return now + expDraw(rng, c.Rate)
	}
	cycle := float64(c.BurstCycle)
	onLen := cycle / c.BurstFactor
	onRate := c.Rate * c.BurstFactor
	// Track the cycle by index rather than walking t by float remainders —
	// sub-ULP increments near the on-window edge would stall the walk.
	k := math.Floor(float64(now) / cycle)
	pos := float64(now) - float64(k*cycle)
	if pos >= onLen {
		k, pos = k+1, 0
	}
	for {
		gap := float64(expDraw(rng, onRate))
		if pos+gap < onLen {
			return sim.Time(float64(k*cycle) + pos + gap)
		}
		// No arrival before this on window closes; memorylessness lets the
		// next window redraw fresh.
		k, pos = k+1, 0
	}
}
