// Package cache implements the per-GPU software-managed hot-row embedding
// cache of the serving layer: each GPU keeps a fixed number of slots for
// embedding rows owned by OTHER GPUs, so that cache-hit lookups are served
// from local HBM instead of travelling the fabric (the HugeCTR HPS
// mechanism). Replacement is CLOCK (second-chance): a probe hit sets the
// row's reference bit, an admission sweeps the clock hand past referenced
// slots — clearing their bits — and evicts the first unreferenced slot it
// finds. CLOCK approximates LRU with one reference bit per row and, on the Zipf
// streams internal/workload generates, keeps the hot head resident.
//
// Residency lives in a dense state array over the whole key space: every
// (table, hashed row) key owns two bits, resident and referenced, at index
// base[table]+row, so a probe tests and sets bits in one word and an
// eviction clears them. That costs 2 bits × Σ table rows per GPU whatever
// the capacity, and a table's bits stay cache-resident while a batch walks
// its rows. The slot → key array grows with residency, and functional
// caches also keep a dense key → slot map beside their stored rows.
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
	"math"

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
// it tracks residency only. Its counters are per row: every row of a
// TouchRows bag is one row probe, so Stats().HitRate() is the share of remote
// row lookups the cache served.
type Cache struct {
	dim   int
	funct bool
	// base[f] is the dense index of table f's row 0; base[len-1] is the
	// key-space size. A key's state lives at index base[Feature]+Row.
	base   []int
	state  []uint64 // resident and referenced bits, two per key
	keys   []int32  // dense key index per slot; grows with residency
	slots  int
	hand   int
	slotOf []int32   // key index -> slot (functional mode only)
	rows   []float32 // len(keys)*dim values in functional mode
	stats  metrics.CacheCounters
	// frozen blocks new admissions (and so evictions): the serving layer's
	// stale-cache degradation policy freezes contents while the machine is
	// unhealthy, trading freshness for stability. Probes and resident-key
	// refreshes still work.
	frozen bool
}

// A key's two state bits, at bit 2*(index mod 32) of word index/32.
const (
	resident   = 1
	referenced = 2
)

// New returns an empty cache with the given slot count and row dimension
// over the key space of tables with the given row counts (tableRows[f] is
// table f's hash size). functional selects whether row values are stored.
func New(slots, dim int, tableRows []int, functional bool) *Cache {
	if slots <= 0 {
		panic(fmt.Sprintf("cache: non-positive slot count %d", slots))
	}
	if dim <= 0 {
		panic(fmt.Sprintf("cache: non-positive row dim %d", dim))
	}
	base := make([]int, len(tableRows)+1)
	for f, n := range tableRows {
		if n <= 0 {
			panic(fmt.Sprintf("cache: table %d has non-positive row count %d", f, n))
		}
		base[f+1] = base[f] + n
	}
	n := base[len(tableRows)]
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("cache: key space of %d rows exceeds int32", n))
	}
	c := &Cache{
		dim:   dim,
		funct: functional,
		base:  base,
		state: make([]uint64, (n+31)/32),
		slots: slots,
	}
	if functional {
		c.slotOf = make([]int32, n)
	}
	return c
}

// index returns k's dense key index, panicking on a key outside the
// cache's key space.
func (c *Cache) index(k Key) int {
	lo, n := c.table(k.Feature)
	if uint(k.Row) >= n {
		panic(errRowOutside)
	}
	return lo + int(k.Row)
}

// table returns table f's first dense key index and its row count.
func (c *Cache) table(f int32) (int, uint) {
	lo := c.base[f]
	return lo, uint(c.base[f+1] - lo)
}

const errRowOutside = "cache: key row outside its table"

// bits returns the state word holding key index i's bits and their shift.
func (c *Cache) bits(i int) (*uint64, uint) {
	return &c.state[i>>5], uint(i&31) * 2
}

// TouchRows probes the cache for each row of a bag of table f, counting a
// hit or miss per row and setting resident rows' reference bits, and reports
// whether every row was resident. It never branches on residency: a row ORs
// its resident bit, shifted onto its reference bit, into its word.
func (c *Cache) TouchRows(f int32, rows []int32) (allHit bool) {
	lo, n := c.table(f)
	var hits uint64
	for _, row := range rows {
		if uint(row) >= n {
			panic(errRowOutside)
		}
		w, sh := c.bits(lo + int(row))
		h := *w >> sh & resident
		*w |= h << 1 << sh
		hits += h
	}
	c.stats.Hits += int64(hits)
	c.stats.Misses += int64(len(rows)) - int64(hits)
	return hits == uint64(len(rows))
}

// AdmitRows admits every row of one bag of table f, in order, as Admit
// does. In functional mode w holds the owner table's weights, row r's values
// at w[r*dim:(r+1)*dim]; in timing mode it is ignored and may be nil.
func (c *Cache) AdmitRows(f int32, rows []int32, w []float32) {
	lo, n := c.table(f)
	for _, row := range rows {
		if uint(row) >= n {
			panic(errRowOutside)
		}
		var vec []float32
		if c.funct {
			vec = w[int(row)*c.dim : (int(row)+1)*c.dim]
		}
		c.admit(lo+int(row), vec)
	}
}

// Admit inserts the row for k, evicting a victim by CLOCK second-chance if
// the cache is full. Re-admitting a resident key refreshes its reference bit
// (and value, in functional mode) without counting an insertion. While the
// cache is frozen (SetFrozen), admissions of non-resident keys are refused
// and counted instead. In functional mode row must hold the key's dim
// values; in timing mode it is ignored and may be nil.
func (c *Cache) Admit(k Key, row []float32) { c.admit(c.index(k), row) }

// admit is Admit of dense key index i.
func (c *Cache) admit(i int, row []float32) {
	w, sh := c.bits(i)
	if *w>>sh&resident != 0 {
		*w |= referenced << sh
		if c.funct {
			copy(c.rows[int(c.slotOf[i])*c.dim:], row[:c.dim])
		}
		return
	}
	if c.frozen {
		c.stats.FrozenRejects++
		return
	}
	slot := len(c.keys)
	if slot < c.slots {
		c.keys = append(c.keys, int32(i))
		if c.funct {
			c.rows = append(c.rows, row[:c.dim]...)
		}
	} else {
		// CLOCK sweep: give referenced slots a second chance.
		for {
			vw, vsh := c.bits(int(c.keys[c.hand]))
			if *vw>>vsh&referenced == 0 {
				*vw &^= resident << vsh
				break
			}
			*vw &^= referenced << vsh
			c.hand = (c.hand + 1) % c.slots
		}
		slot = c.hand
		c.hand = (c.hand + 1) % c.slots
		c.keys[slot] = int32(i)
		if c.funct {
			copy(c.rows[slot*c.dim:], row[:c.dim])
		}
		c.stats.Evictions++
	}
	*w |= resident << sh
	if c.funct {
		c.slotOf[i] = int32(slot)
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
	i := c.index(k)
	if w, sh := c.bits(i); *w>>sh&resident == 0 {
		return nil
	}
	slot := int(c.slotOf[i])
	return c.rows[slot*c.dim : (slot+1)*c.dim]
}

// Slots returns the cache capacity in rows.
func (c *Cache) Slots() int { return c.slots }

// Len returns the number of resident rows.
func (c *Cache) Len() int { return len(c.keys) }

// SetFrozen freezes (or thaws) the cache's contents: while frozen, Admit
// refuses non-resident keys so the working set cannot churn. Used by the
// serving layer to serve stale-but-stable cache contents during degraded
// dispatches.
func (c *Cache) SetFrozen(frozen bool) { c.frozen = frozen }

// Stats returns the cache's counters so far.
func (c *Cache) Stats() metrics.CacheCounters { return c.stats }

// Set is one machine's bundle: one Cache per GPU, shared shape. A serving
// session runs every dispatch on one machine, so its Set stays warm across
// requests.
type Set struct {
	caches []*Cache
}

// NewSet builds one cache per GPU over the key space of tables with the
// given row counts.
func NewSet(gpus, slots, dim int, tableRows []int, functional bool) *Set {
	if gpus <= 0 {
		panic(fmt.Sprintf("cache: non-positive GPU count %d", gpus))
	}
	s := &Set{caches: make([]*Cache, gpus)}
	for g := range s.caches {
		s.caches[g] = New(slots, dim, tableRows, functional)
	}
	return s
}

// GPU returns GPU g's cache.
func (s *Set) GPU(g int) *Cache { return s.caches[g] }

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
