// Package metrics computes the summary statistics the paper reports:
// geometric-mean speedups (Tables 1 and 2) and weak/strong scaling factors
// (Figures 5 and 8).
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Geomean returns the geometric mean of strictly positive values, or 0 for
// an empty slice (the documented "no data" value — a sweep that filtered
// everything out reports zero instead of crashing the whole experiment). It
// still panics on non-positive input, which indicates a broken experiment,
// not a value to average over.
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logSum float64
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("metrics: geomean of non-positive value %g", x))
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// Mean returns the arithmetic mean; it panics on an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		panic("metrics: mean of nothing")
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Speedup returns baseline/optimized — how many times faster the optimized
// runtime is.
func Speedup(baseline, optimized float64) float64 {
	if baseline <= 0 || optimized <= 0 {
		panic(fmt.Sprintf("metrics: speedup of non-positive runtimes (%g, %g)", baseline, optimized))
	}
	return baseline / optimized
}

// RelativeError returns |got-want| / |want|.
func RelativeError(got, want float64) float64 {
	if want == 0 {
		panic("metrics: relative error against zero")
	}
	return math.Abs(got-want) / math.Abs(want)
}

// WithinFactor reports whether got is within [want/f, want*f] for f >= 1 —
// the tolerance form used by the calibration shape tests.
func WithinFactor(got, want, f float64) bool {
	if f < 1 {
		panic("metrics: WithinFactor needs f >= 1")
	}
	if want <= 0 || got <= 0 {
		return false
	}
	return got >= want/f && got <= want*f
}

// Imbalance returns max/mean of non-negative loads — the per-owner skew
// measure the placement layer reports: 1.0 is perfectly balanced, GPUs is
// the worst case (all load on one device). An empty or all-zero slice
// returns 0 (the documented "no data" value — a run that served nothing has
// no imbalance to report). It panics on negative loads, which indicate a
// broken counter, not a value to compare.
func Imbalance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, max float64
	for _, x := range xs {
		if x < 0 {
			panic(fmt.Sprintf("metrics: imbalance of negative load %g", x))
		}
		sum += x
		if x > max {
			max = x
		}
	}
	if sum == 0 {
		return 0
	}
	return max / (sum / float64(len(xs)))
}

// Percentile returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank method on a sorted copy; serving latency tails (p50/p95/p99)
// use it. An empty slice returns 0 (the documented "no data" value — a
// degraded serving run that completed zero requests has no tail to report).
// It panics on a percentile outside (0, 100].
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !(p > 0 && p <= 100) { // also catches NaN
		panic(fmt.Sprintf("metrics: percentile %g outside (0, 100]", p))
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// CacheCounters aggregates hot-row cache activity: row probe outcomes and
// the admission/eviction churn behind them. One Cache owns one counter set;
// Add folds per-GPU sets into a system-wide view, and Sub takes the
// activity between two snapshots of one set.
type CacheCounters struct {
	Hits       int64 // row probes that found the row resident
	Misses     int64 // row probes that fell through to the owning GPU
	Insertions int64 // rows admitted (including those that evicted a victim)
	Evictions  int64 // resident rows displaced by an admission
	// FrozenRejects counts admissions refused while the cache was frozen by
	// the serving layer's stale-cache degradation policy.
	FrozenRejects int64
}

// Accesses returns the total row probe count.
func (c CacheCounters) Accesses() int64 { return c.Hits + c.Misses }

// HitRate returns Hits/Accesses — the share of remote row lookups the cache
// served — or 0 when the cache was never probed.
func (c CacheCounters) HitRate() float64 {
	if c.Accesses() == 0 {
		return 0
	}
	return float64(c.Hits) / float64(c.Accesses())
}

// Add returns the element-wise sum of the two counter sets.
func (c CacheCounters) Add(o CacheCounters) CacheCounters {
	return CacheCounters{
		Hits:          c.Hits + o.Hits,
		Misses:        c.Misses + o.Misses,
		Insertions:    c.Insertions + o.Insertions,
		Evictions:     c.Evictions + o.Evictions,
		FrozenRejects: c.FrozenRejects + o.FrozenRejects,
	}
}

// Sub returns the element-wise difference c - o: the activity since the
// snapshot o of the same counters.
func (c CacheCounters) Sub(o CacheCounters) CacheCounters {
	return CacheCounters{
		Hits:          c.Hits - o.Hits,
		Misses:        c.Misses - o.Misses,
		Insertions:    c.Insertions - o.Insertions,
		Evictions:     c.Evictions - o.Evictions,
		FrozenRejects: c.FrozenRejects - o.FrozenRejects,
	}
}

// RetryCounters aggregates fault-recovery activity: proxy delivery losses and
// retransmissions on the inter-node fabric, plus the serving layer's
// degradation actions (health-aware shedding and queue-timeout rejects). One
// run owns one counter set; Add folds runs into sweep-level views.
type RetryCounters struct {
	Drops     int64 // proxy deliveries lost to injected faults
	Retries   int64 // retransmissions issued by the proxy retry loop
	Exhausted int64 // messages that hit the attempt cap undelivered
	Shed      int64 // arrivals shed by health-aware load shedding
	Rejected  int64 // queued requests rejected by queue timeout
}

// Add returns the element-wise sum of the two counter sets.
func (c RetryCounters) Add(o RetryCounters) RetryCounters {
	return RetryCounters{
		Drops:     c.Drops + o.Drops,
		Retries:   c.Retries + o.Retries,
		Exhausted: c.Exhausted + o.Exhausted,
		Shed:      c.Shed + o.Shed,
		Rejected:  c.Rejected + o.Rejected,
	}
}

// DedupCounters aggregates batch-level index-deduplication activity on the
// cross-GPU wire paths: how many pooled references and vectors were eligible
// (off-diagonal, cache-miss traffic), how many distinct rows they collapsed
// to, and what actually went over the wire. One System owns one counter set;
// Add folds per-run sets into sweep-level views.
type DedupCounters struct {
	Batches      int64 // batches classified with dedup enabled
	EligibleIdx  int64 // pooled index references on off-diagonal pairs (cache misses only)
	EligibleVecs int64 // dense-scheme output vectors those pairs would ship
	UniqueRows   int64 // distinct (table, row) keys among EligibleIdx
	WireRows     int64 // unique rows shipped on the pairs routed wire
	WireVecs     int64 // dense vectors shipped on the pairs routed dense
	// WireSavedBytes is the modeled wire traffic the wire routes avoided:
	// for each pair routed wire, (dense vectors - unique rows) × the
	// vector's encoded wire size under the wire codec. It is signed: routes
	// are chosen by price, not by count, and a pair whose gather kernel
	// gains from the extra items ships more unique rows than the pooled
	// vectors it replaces, which counts negative.
	WireSavedBytes float64
}

// UniqueFraction returns UniqueRows/EligibleIdx — the batch-level dedup
// ratio — or 0 when nothing was eligible.
func (c DedupCounters) UniqueFraction() float64 {
	if c.EligibleIdx == 0 {
		return 0
	}
	return float64(c.UniqueRows) / float64(c.EligibleIdx)
}

// Add returns the element-wise sum of the two counter sets.
func (c DedupCounters) Add(o DedupCounters) DedupCounters {
	return DedupCounters{
		Batches:        c.Batches + o.Batches,
		EligibleIdx:    c.EligibleIdx + o.EligibleIdx,
		EligibleVecs:   c.EligibleVecs + o.EligibleVecs,
		UniqueRows:     c.UniqueRows + o.UniqueRows,
		WireRows:       c.WireRows + o.WireRows,
		WireVecs:       c.WireVecs + o.WireVecs,
		WireSavedBytes: c.WireSavedBytes + o.WireSavedBytes,
	}
}

// Monotone reports whether xs is non-increasing (dir < 0) or non-decreasing
// (dir > 0) within slack tolerance (absolute).
func Monotone(xs []float64, dir int, slack float64) bool {
	if dir == 0 {
		panic("metrics: Monotone needs a direction")
	}
	for i := 1; i < len(xs); i++ {
		d := xs[i] - xs[i-1]
		if dir > 0 && d < -slack {
			return false
		}
		if dir < 0 && d > slack {
			return false
		}
	}
	return true
}
