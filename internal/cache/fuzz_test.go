package cache

import (
	"math/bits"
	"slices"
	"testing"

	"pgasemb/internal/metrics"
)

// mapClock is the reference CLOCK cache: the same replacement policy and
// counters as Cache, indexed by a Go map. FuzzCache holds Cache to it.
type mapClock struct {
	dim    int
	funct  bool
	keys   []Key
	ref    []bool
	used   int
	hand   int
	index  map[Key]int32
	rows   []float32
	stats  metrics.CacheCounters
	frozen bool
}

func newMapClock(slots, dim int, functional bool) *mapClock {
	m := &mapClock{
		dim:   dim,
		funct: functional,
		keys:  make([]Key, slots),
		ref:   make([]bool, slots),
		index: make(map[Key]int32, slots),
	}
	if functional {
		m.rows = make([]float32, slots*dim)
	}
	return m
}

func (m *mapClock) touch(k Key) bool {
	if slot, ok := m.index[k]; ok {
		m.ref[slot] = true
		m.stats.Hits++
		return true
	}
	m.stats.Misses++
	return false
}

func (m *mapClock) admit(k Key, row []float32) {
	if slot, ok := m.index[k]; ok {
		m.ref[slot] = true
		if m.funct {
			copy(m.rows[int(slot)*m.dim:], row[:m.dim])
		}
		return
	}
	if m.frozen {
		m.stats.FrozenRejects++
		return
	}
	var slot int
	if m.used < len(m.keys) {
		slot = m.used
		m.used++
	} else {
		for m.ref[m.hand] {
			m.ref[m.hand] = false
			m.hand = (m.hand + 1) % len(m.keys)
		}
		slot = m.hand
		m.hand = (m.hand + 1) % len(m.keys)
		delete(m.index, m.keys[slot])
		m.stats.Evictions++
	}
	m.keys[slot] = k
	m.ref[slot] = false
	m.index[k] = int32(slot)
	if m.funct {
		copy(m.rows[slot*m.dim:], row[:m.dim])
	}
	m.stats.Insertions++
}

func (m *mapClock) row(k Key) []float32 {
	if !m.funct {
		return nil
	}
	slot, ok := m.index[k]
	if !ok {
		return nil
	}
	return m.rows[int(slot)*m.dim : (int(slot)+1)*m.dim]
}

// touchRows and admitRows are the bag kernels' reference: the map model's
// touch and admit applied row by row, the bag a hit only if every row was.
func (m *mapClock) touchRows(f int32, rows []int32) bool {
	all := true
	for _, r := range rows {
		if !m.touch(Key{Feature: f, Row: r}) {
			all = false
		}
	}
	return all
}

func (m *mapClock) admitRows(f int32, rows []int32, w []float32) {
	for _, r := range rows {
		var vec []float32
		if m.funct {
			vec = w[int(r)*m.dim : (int(r)+1)*m.dim]
		}
		m.admit(Key{Feature: f, Row: r}, vec)
	}
}

// FuzzCache drives TouchRows/AdmitRows/Admit/Row/SetFrozen streams against
// the map-backed reference at capacities of 1 to 300 slots over four tables
// of 1 to 256 rows each, so evictions dominate and each table's last row can
// be drawn. An operation is three bytes (kind, table, row); a bag operation
// takes 1 + (its third byte mod 16) rows from the bytes that follow, so
// small tables repeat rows within a bag and small caches evict a bag's own
// admissions. Functional bag admissions read table weights rewritten before
// every operation, so a resident row's refresh must copy the new value.
// After every operation the two must agree on the result, the Stats, the
// slot layout and the per-slot reference bits, and the state array must hold
// exactly the resident keys (see checkState).
func FuzzCache(f *testing.F) {
	f.Add(uint16(0), uint32(0xffffffff), false, []byte{0, 0, 0, 2, 0, 0, 0, 0, 0, 1, 0, 1})
	f.Add(uint16(7), uint32(0x00030102), true, []byte{5, 1, 2, 5, 1, 3, 3, 1, 2, 4, 0, 0, 5, 0, 0, 2, 2, 9, 3, 2, 9})
	f.Add(uint16(63), uint32(0x40ff0710), false, []byte("a longer mixed stream over a mid-sized cache with evictions"))
	f.Add(uint16(299), uint32(0x80808080), true, []byte("\x05\x00\x00\x05\x00\x01\x04\x01\x00\x05\x00\x00\x02\x03\xff"))
	// Bags over two-row tables: rows repeat within a bag.
	f.Add(uint16(5), uint32(0x01010101), true, []byte{5, 0, 7, 0, 1, 1, 0, 1, 0, 0, 1, 5, 0, 7, 1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 3, 0, 1, 1, 0, 3, 0, 1})
	// A two-slot cache: a missing bag's own admissions evict each other.
	f.Add(uint16(1), uint32(0x20202020), false, []byte{5, 2, 5, 1, 2, 3, 4, 5, 6, 5, 2, 5, 1, 2, 3, 4, 5, 6, 0, 2, 2, 1, 6, 1, 2, 3, 9})
	// Frozen mid-stream: a missing bag's admissions are refused beside its
	// resident rows' refreshes, then the thawed cache evicts.
	f.Add(uint16(3), uint32(0x10101010), true, []byte{1, 0, 2, 1, 2, 3, 4, 1, 0, 5, 0, 3, 1, 9, 10, 2, 0, 0, 1, 9, 1, 4, 0, 0, 5, 0, 4, 9, 10, 11, 12, 13, 3, 0, 9})
	f.Fuzz(func(t *testing.T, capSeed uint16, shape uint32, functional bool, ops []byte) {
		const dim = 2
		slots := 1 + int(capSeed)%300
		tableRows := make([]int, 4)
		weights := make([][]float32, 4)
		for f := range tableRows {
			tableRows[f] = 1 + int(shape>>(8*f)&0xff)
			weights[f] = make([]float32, tableRows[f]*dim)
		}
		c := New(slots, dim, tableRows, functional)
		ref := newMapClock(slots, dim, functional)
		row := make([]float32, dim)
		bag := make([]int32, 16)
		for op := 0; len(ops) >= 3; op++ {
			f := int32(ops[1] % 4)
			k := Key{Feature: f, Row: int32(int(ops[2]) % tableRows[f])}
			row[0], row[1] = float32(op), -float32(op)
			kind, size := ops[0]%6, 1+int(ops[2]%16)
			ops = ops[3:]
			var rows []int32
			if kind <= 1 || kind == 5 {
				rows = bag[:min(size, len(ops))]
				for i := range rows {
					rows[i] = int32(int(ops[i]) % tableRows[f])
				}
				ops = ops[len(rows):]
				w := weights[f]
				for i := range w {
					w[i] = float32(op*1000 + i)
				}
			}
			switch kind {
			case 0:
				if got, want := c.TouchRows(f, rows), ref.touchRows(f, rows); got != want {
					t.Fatalf("op %d: TouchRows(%d, %v) = %v, want %v", op, f, rows, got, want)
				}
			case 1:
				c.AdmitRows(f, rows, weights[f])
				ref.admitRows(f, rows, weights[f])
			case 2:
				c.Admit(k, row)
				ref.admit(k, row)
			case 3:
				if got, want := c.Row(k), ref.row(k); !slices.Equal(got, want) {
					t.Fatalf("op %d: Row(%v) = %v, want %v", op, k, got, want)
				}
			case 4:
				frozen := f&1 == 1
				c.SetFrozen(frozen)
				ref.frozen = frozen
			case 5:
				// The route-plan compiler's pattern: probe the bag, then
				// admit it whole unless every row was resident.
				if !c.TouchRows(f, rows) {
					c.AdmitRows(f, rows, weights[f])
				}
				if !ref.touchRows(f, rows) {
					ref.admitRows(f, rows, weights[f])
				}
			}
			if got, want := c.Stats(), ref.stats; got != want {
				t.Fatalf("op %d: Stats = %+v, want %+v", op, got, want)
			}
			if c.Len() != ref.used || c.hand != ref.hand {
				t.Fatalf("op %d: Len/hand = %d/%d, want %d/%d", op, c.Len(), c.hand, ref.used, ref.hand)
			}
			for s, rk := range ref.keys[:ref.used] {
				i := int(c.keys[s])
				if i != c.index(rk) || c.stateOf(i)&referenced != 0 != ref.ref[s] {
					t.Fatalf("op %d: slot %d holds key index %d (referenced %v), want %v (referenced %v)",
						op, s, i, c.stateOf(i)&referenced != 0, rk, ref.ref[s])
				}
				if got, want := c.Row(rk), ref.row(rk); !slices.Equal(got, want) {
					t.Fatalf("op %d: slot %d's row %v = %v, want %v", op, s, rk, got, want)
				}
			}
			checkState(t, c)
		}
	})
}

// stateOf returns key index i's two state bits.
func (c *Cache) stateOf(i int) uint64 {
	w, sh := c.bits(i)
	return *w >> sh & (resident | referenced)
}

// checkState asserts the state array marks exactly Len() keys resident, no
// key referenced without being resident, and every slot's key resident —
// mapped back to its own slot in functional mode.
func checkState(t *testing.T, c *Cache) {
	t.Helper()
	const lo = 0x5555555555555555 // each key's resident bit
	held := 0
	for wi, w := range c.state {
		held += bits.OnesCount64(w & lo)
		if stray := w >> 1 & lo &^ w; stray != 0 {
			t.Fatalf("key index %d referenced but not resident", wi*32+bits.TrailingZeros64(stray)/2)
		}
	}
	if held != c.Len() {
		t.Fatalf("state marks %d keys resident, cache has %d", held, c.Len())
	}
	for s, i := range c.keys {
		if c.stateOf(int(i))&resident == 0 {
			t.Fatalf("slot %d's key index %d is not resident", s, i)
		}
		if c.funct && c.slotOf[i] != int32(s) {
			t.Fatalf("resident key index %d in slot %d maps to slot %d", i, s, c.slotOf[i])
		}
	}
}
