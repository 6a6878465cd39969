package cache

import "math/bits"

// slotIndex maps each resident key to its cache slot. Open addressing with
// linear probing over a power-of-two table: each entry keeps the key inline
// beside its slot number plus one (12 bytes; 0 marks an empty entry), so a
// probe reads one cache line. Eviction deletes by backward shift — later
// members of the probe run move up into the gap — so the table never holds
// tombstones and probe runs stay as short as the live load allows. The table
// starts small and doubles at half load, so its size follows the number of
// resident keys, not the cache's capacity. The zero value is an empty index.
type slotIndex struct {
	entries []indexEntry
	shift   uint // 64 - log2(len(entries)): hash bits kept for the home entry
	n       int  // keys held
}

type indexEntry struct {
	key  Key
	slot int32 // cache slot + 1; 0 marks an empty entry
}

// find returns k's slot, or -1 when k is not resident.
func (ix *slotIndex) find(k Key) int32 {
	if ix.n == 0 {
		return -1
	}
	mask := len(ix.entries) - 1
	for i := ix.home(k); ; i = (i + 1) & mask {
		if e := &ix.entries[i]; e.slot == 0 || e.key == k {
			return e.slot - 1
		}
	}
}

// insert records that k, which must not be resident, lives in slot.
func (ix *slotIndex) insert(k Key, slot int32) {
	if 2*(ix.n+1) > len(ix.entries) {
		ix.grow()
	}
	mask := len(ix.entries) - 1
	i := ix.home(k)
	for ix.entries[i].slot != 0 {
		i = (i + 1) & mask
	}
	ix.entries[i] = indexEntry{key: k, slot: slot + 1}
	ix.n++
}

// remove deletes resident key k. Each later entry of k's probe run whose
// home lies at or before the gap (cyclically) shifts back into it, leaving
// every remaining key reachable from its home without tombstones.
func (ix *slotIndex) remove(k Key) {
	mask := len(ix.entries) - 1
	i := ix.home(k)
	for {
		e := &ix.entries[i]
		if e.slot == 0 {
			panic("cache: removing a key that is not resident")
		}
		if e.key == k {
			break
		}
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; ix.entries[j].slot != 0; j = (j + 1) & mask {
		if (j-ix.home(ix.entries[j].key))&mask >= (j-i)&mask {
			ix.entries[i] = ix.entries[j]
			i = j
		}
	}
	ix.entries[i] = indexEntry{}
	ix.n--
}

// home returns k's first probe entry: Fibonacci hashing of the packed
// (feature, row) pair keeps the well-mixed high bits of the product, so
// sequential rows and table ids spread out.
func (ix *slotIndex) home(k Key) int {
	packed := uint64(uint32(k.Feature))<<32 | uint64(uint32(k.Row))
	return int((packed * 0x9E3779B97F4A7C15) >> ix.shift)
}

// grow doubles the table (16 entries at first) and re-homes the held keys.
func (ix *slotIndex) grow() {
	old := ix.entries
	size := max(16, 2*len(old))
	ix.entries = make([]indexEntry, size)
	ix.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for _, e := range old {
		if e.slot == 0 {
			continue
		}
		i := ix.home(e.key)
		for ix.entries[i].slot != 0 {
			i = (i + 1) & mask
		}
		ix.entries[i] = e
	}
}
