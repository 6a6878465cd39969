package retrieval

import "math/bits"

// rowSet is the route-plan compiler's unique-row set for one embedding table
// at a time. A dedup key is (table, hashed row) and keys of different tables
// never collide, so the compiler walks a table's references together and
// tracks them in a bitmap over the table's dense row range: one bit per row,
// plus one dirty bit per 64-bit word of that bitmap. reset clears only the
// dirty words, so it costs O(rows/4096 + words touched). In positions mode
// (functional runs) the set also keeps each row's first-seen position. The
// bitmaps grow to the largest table seen and are reused across resets, so a
// run's steady state allocates nothing. The zero value is an empty set.
type rowSet struct {
	bits  []uint64 // one bit per row
	dirty []uint64 // one bit per bits word holding a set bit
	pos   []int32  // first-seen position per row (positions mode only)
	live  int      // dirty words covering the rows of the last reset
	n     int32    // rows added since the last reset
}

// reset empties the set and readies it for rows [0, rows). positions
// readies the first-seen positions insert records.
func (rs *rowSet) reset(rows int, positions bool) {
	for i, d := range rs.dirty[:rs.live] {
		for d != 0 {
			rs.bits[i<<6|bits.TrailingZeros64(d)] = 0
			d &= d - 1
		}
		rs.dirty[i] = 0
	}
	rs.n = 0
	words := (rows + 63) >> 6
	rs.live = (words + 63) >> 6
	if words > len(rs.bits) {
		rs.bits = make([]uint64, words)
		rs.dirty = make([]uint64, rs.live)
	}
	if positions && rows > len(rs.pos) {
		rs.pos = make([]int32, rows)
	}
}

// len returns the number of distinct rows added since the last reset.
func (rs *rowSet) len() int { return int(rs.n) }

// add adds row and returns 1 if this call added it, 0 if it was already
// in the set. It never branches on the row: it ORs in the row's bit and its
// word's dirty bit on every call (no-ops when they are set), so a skewed
// stream whose rows are fresh about half the time costs no mispredictions.
func (rs *rowSet) add(row int) int32 {
	w := row >> 6
	word := rs.bits[w]
	fresh := int32(^word >> (row & 63) & 1)
	rs.bits[w] = word | 1<<(row&63)
	rs.dirty[w>>6] |= 1 << (w & 63)
	rs.n += fresh
	return fresh
}

// insert is add in positions mode: it returns row's first-seen position —
// next, when this call adds it.
func (rs *rowSet) insert(row int, next int32) (pos int32, fresh bool) {
	if rs.add(row) == 0 {
		return rs.pos[row], false
	}
	rs.pos[row] = next
	return next, true
}
