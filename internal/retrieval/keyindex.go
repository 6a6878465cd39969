package retrieval

import "math/bits"

// keyIndex is the route-plan compiler's unique-key index: it maps each
// (table, hashed row) key to its first-seen position in the current key set.
// Open addressing with linear probing over a power-of-two table; every slot
// carries the generation that wrote it, so reset is O(1) — bumping the
// generation empties the table without touching it. The table grows at half
// load and is reused across resets, so a run's steady state allocates
// nothing. The zero value is an empty index.
type keyIndex struct {
	slots []keySlot
	shift uint   // 64 - log2(len(slots)): hash bits kept for the home slot
	gen   uint32 // the live generation; never 0 once slots exist
	n     int32  // keys inserted this generation
}

type keySlot struct {
	key uint64
	pos int32
	gen uint32
}

// reset empties the index.
func (ki *keyIndex) reset() {
	ki.n = 0
	ki.gen++
	if ki.gen == 0 {
		// The counter wrapped: slots stamped by an earlier pass through
		// generation 1 would read as live, so clear them once.
		clear(ki.slots)
		ki.gen = 1
	}
}

// len returns the number of distinct keys inserted since the last reset.
func (ki *keyIndex) len() int { return int(ki.n) }

// insert returns key's position — its rank in first-seen order since the
// last reset — and whether this call added it.
func (ki *keyIndex) insert(key uint64) (pos int32, fresh bool) {
	if 2*(int(ki.n)+1) > len(ki.slots) {
		ki.grow()
	}
	mask := len(ki.slots) - 1
	for i := ki.home(key); ; i = (i + 1) & mask {
		sl := &ki.slots[i]
		if sl.gen != ki.gen {
			*sl = keySlot{key: key, pos: ki.n, gen: ki.gen}
			ki.n++
			return sl.pos, true
		}
		if sl.key == key {
			return sl.pos, false
		}
	}
}

// home returns key's first probe slot: Fibonacci hashing keeps the well-mixed
// high bits of the product, so sequential rows and table indices spread out.
func (ki *keyIndex) home(key uint64) int {
	return int((key * 0x9E3779B97F4A7C15) >> ki.shift)
}

// grow doubles the table (64 slots at first) and re-homes the live keys,
// keeping their positions.
func (ki *keyIndex) grow() {
	old := ki.slots
	size := max(64, 2*len(old))
	ki.slots = make([]keySlot, size)
	ki.shift = uint(64 - bits.TrailingZeros(uint(size)))
	if ki.gen == 0 {
		ki.gen = 1 // a zero-value index: nothing live to carry over
	}
	mask := size - 1
	for _, sl := range old {
		if sl.gen != ki.gen {
			continue
		}
		i := ki.home(sl.key)
		for ki.slots[i].gen == ki.gen {
			i = (i + 1) & mask
		}
		ki.slots[i] = sl
	}
}
