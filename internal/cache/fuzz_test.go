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

// FuzzCache drives Touch/Admit/Row/SetFrozen streams against the map-backed
// reference at capacities of 1 to 300 slots over four tables of 1 to 256
// rows each, so evictions dominate and each table's last row can be drawn.
// After every operation the two must agree on the result, the Stats, the
// slot layout and the per-slot reference bits, and the state array must hold
// exactly the resident keys (see checkState).
func FuzzCache(f *testing.F) {
	f.Add(uint16(0), uint32(0xffffffff), false, []byte{0, 0, 0, 2, 0, 0, 0, 0, 0, 1, 0, 1})
	f.Add(uint16(7), uint32(0x00030102), true, []byte{5, 1, 2, 5, 1, 3, 3, 1, 2, 4, 0, 0, 5, 0, 0, 2, 2, 9, 3, 2, 9})
	f.Add(uint16(63), uint32(0x40ff0710), false, []byte("a longer mixed stream over a mid-sized cache with evictions"))
	f.Add(uint16(299), uint32(0x80808080), true, []byte("\x05\x00\x00\x05\x00\x01\x04\x01\x00\x05\x00\x00\x02\x03\xff"))
	f.Fuzz(func(t *testing.T, capSeed uint16, shape uint32, functional bool, ops []byte) {
		const dim = 2
		slots := 1 + int(capSeed)%300
		tableRows := make([]int, 4)
		for f := range tableRows {
			tableRows[f] = 1 + int(shape>>(8*f)&0xff)
		}
		c := New(slots, dim, tableRows, functional)
		ref := newMapClock(slots, dim, functional)
		row := make([]float32, dim)
		for op := 0; len(ops) >= 3; op, ops = op+1, ops[3:] {
			f := int(ops[1] % 4)
			k := Key{Feature: int32(f), Row: int32(int(ops[2]) % tableRows[f])}
			row[0], row[1] = float32(op), -float32(op)
			switch ops[0] % 6 {
			case 0, 1:
				if got, want := c.Touch(k), ref.touch(k); got != want {
					t.Fatalf("op %d: Touch(%v) = %v, want %v", op, k, got, want)
				}
			case 2:
				c.Admit(k, row)
				ref.admit(k, row)
			case 3:
				if got, want := c.Row(k), ref.row(k); !slices.Equal(got, want) {
					t.Fatalf("op %d: Row(%v) = %v, want %v", op, k, got, want)
				}
			case 4:
				frozen := ops[1]&1 == 1
				c.SetFrozen(frozen)
				ref.frozen = frozen
			case 5:
				// The serving pattern: probe, then admit on a miss.
				if !c.Touch(k) {
					c.Admit(k, row)
				}
				if !ref.touch(k) {
					ref.admit(k, row)
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
