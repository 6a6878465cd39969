// Package cache implements the per-GPU software-managed hot-row embedding
// cache of the serving layer: each GPU keeps a fixed number of slots for
// embedding rows owned by OTHER GPUs, so that cache-hit lookups are served
// from local HBM instead of travelling the fabric (the HugeCTR HPS
// mechanism). Replacement is CLOCK (second-chance): a probe hit sets the
// slot's reference bit, an admission sweeps the clock hand past referenced
// slots — clearing their bits — and evicts the first unreferenced slot it
// finds. CLOCK approximates LRU at O(1) state per slot and, on the Zipf
// streams internal/workload generates, keeps the hot head resident. Keys find
// their slots through an open-addressed index (slotIndex) whose size follows
// the resident rows, not the capacity, so an empty cache costs only its
// per-slot key and reference-bit arrays.
//
// The cache is deliberately single-threaded: each simulated GPU owns one
// Cache, and all probes/admissions happen during deterministic host-side
// batch classification, so hit/miss outcomes are a pure function of
// (workload seed, capacity) — never of goroutine interleaving.
//
// Cached rows are always stored DECODED (fp32), whatever the wire codec
// (Config.WirePrecision): under reduced precision the tables themselves are
// quantized at rest, so the fp32 values a consumer admits are already the
// post-codec values every other path reads — cache hits need no decode
// kernel and stay bit-identical to wire-served rows by construction.
package cache

import (
	"fmt"

	"pgasemb/internal/metrics"
)

// Key identifies one embedding row globally: the feature (table) id and the
// hashed row index within that table.
type Key struct {
	Feature int32
	Row     int32
}

// Cache is one GPU's hot-row store. In functional mode it keeps the actual
// row values (so cached lookups can be verified bit-exactly); in timing mode
// it tracks residency only. Its counters are per row: every Touch is one row
// probe, so Stats().HitRate() is the share of remote row lookups the cache
// served.
type Cache struct {
	dim   int
	funct bool
	keys  []Key
	ref   []bool
	used  int
	hand  int
	index slotIndex
	rows  []float32 // used*dim values in functional mode
	stats metrics.CacheCounters
	// frozen blocks new admissions (and so evictions): the serving layer's
	// stale-cache degradation policy freezes contents while the machine is
	// unhealthy, trading freshness for stability. Probes and resident-key
	// refreshes still work.
	frozen bool
}

// New returns an empty cache with the given slot count and row dimension.
// functional selects whether row values are stored.
func New(slots, dim int, functional bool) *Cache {
	if slots <= 0 {
		panic(fmt.Sprintf("cache: non-positive slot count %d", slots))
	}
	if dim <= 0 {
		panic(fmt.Sprintf("cache: non-positive row dim %d", dim))
	}
	c := &Cache{
		dim:   dim,
		funct: functional,
		keys:  make([]Key, slots),
		ref:   make([]bool, slots),
	}
	if functional {
		c.rows = make([]float32, slots*dim)
	}
	return c
}

// Touch probes the cache for row k, counting one row hit or miss and setting
// the slot's reference bit on a hit. It reports whether the row is resident.
func (c *Cache) Touch(k Key) bool {
	if slot := c.index.find(k); slot >= 0 {
		c.ref[slot] = true
		c.stats.Hits++
		return true
	}
	c.stats.Misses++
	return false
}

// Admit inserts the row for k, evicting a victim by CLOCK second-chance if
// the cache is full. Re-admitting a resident key refreshes its reference bit
// (and value, in functional mode) without counting an insertion. While the
// cache is frozen (SetFrozen), admissions of non-resident keys are refused
// and counted instead. In functional mode row must hold the key's dim
// values; in timing mode it is ignored and may be nil.
func (c *Cache) Admit(k Key, row []float32) {
	if slot := c.index.find(k); slot >= 0 {
		c.ref[slot] = true
		if c.funct {
			copy(c.rows[int(slot)*c.dim:], row[:c.dim])
		}
		return
	}
	if c.frozen {
		c.stats.FrozenRejects++
		return
	}
	var slot int
	if c.used < len(c.keys) {
		slot = c.used
		c.used++
	} else {
		// CLOCK sweep: give referenced slots a second chance.
		for c.ref[c.hand] {
			c.ref[c.hand] = false
			c.hand = (c.hand + 1) % len(c.keys)
		}
		slot = c.hand
		c.hand = (c.hand + 1) % len(c.keys)
		c.index.remove(c.keys[slot])
		c.stats.Evictions++
	}
	c.keys[slot] = k
	c.ref[slot] = false
	c.index.insert(k, int32(slot))
	if c.funct {
		copy(c.rows[slot*c.dim:], row[:c.dim])
	}
	c.stats.Insertions++
}

// Row returns the cached values for k, or nil if k is not resident or the
// cache is timing-only. The returned slice aliases cache storage — callers
// must not write through it.
func (c *Cache) Row(k Key) []float32 {
	if !c.funct {
		return nil
	}
	slot := c.index.find(k)
	if slot < 0 {
		return nil
	}
	return c.rows[int(slot)*c.dim : (int(slot)+1)*c.dim]
}

// Slots returns the cache capacity in rows.
func (c *Cache) Slots() int { return len(c.keys) }

// Len returns the number of resident rows.
func (c *Cache) Len() int { return c.used }

// SetFrozen freezes (or thaws) the cache's contents: while frozen, Admit
// refuses non-resident keys so the working set cannot churn. Used by the
// serving layer to serve stale-but-stable cache contents during degraded
// dispatches.
func (c *Cache) SetFrozen(frozen bool) { c.frozen = frozen }

// Frozen reports whether admissions are currently refused.
func (c *Cache) Frozen() bool { return c.frozen }

// Stats returns the cache's counters so far.
func (c *Cache) Stats() metrics.CacheCounters { return c.stats }

// Set is the per-system bundle: one Cache per GPU, shared shape. A Set can
// outlive a single System run — the serving layer attaches one Set to every
// dispatched batch's run so the caches stay warm across requests.
type Set struct {
	caches []*Cache
	slots  int
	dim    int
	funct  bool
}

// NewSet builds one cache per GPU.
func NewSet(gpus, slots, dim int, functional bool) *Set {
	if gpus <= 0 {
		panic(fmt.Sprintf("cache: non-positive GPU count %d", gpus))
	}
	s := &Set{
		caches: make([]*Cache, gpus),
		slots:  slots,
		dim:    dim,
		funct:  functional,
	}
	for g := range s.caches {
		s.caches[g] = New(slots, dim, functional)
	}
	return s
}

// NumGPUs returns the number of per-GPU caches.
func (s *Set) NumGPUs() int { return len(s.caches) }

// GPU returns GPU g's cache.
func (s *Set) GPU(g int) *Cache { return s.caches[g] }

// Slots returns the per-GPU capacity in rows.
func (s *Set) Slots() int { return s.slots }

// Dim returns the row dimension.
func (s *Set) Dim() int { return s.dim }

// Functional reports whether the caches store row values.
func (s *Set) Functional() bool { return s.funct }

// SetFrozen freezes or thaws every GPU's cache (see Cache.SetFrozen).
func (s *Set) SetFrozen(frozen bool) {
	for _, c := range s.caches {
		c.SetFrozen(frozen)
	}
}

// Stats returns the counters summed across all GPUs.
func (s *Set) Stats() metrics.CacheCounters {
	var total metrics.CacheCounters
	for _, c := range s.caches {
		total = total.Add(c.Stats())
	}
	return total
}
