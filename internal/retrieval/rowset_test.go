package retrieval

import "testing"

// FuzzRowSet drives random add/insert/reset sequences against a map
// reference, over tables whose row counts change (grow and shrink) at every
// reset: every call must return the reference's fresh flag (add as a 0 or 1
// count) — and, in positions mode, its first-seen position — len must track
// the reference after every step (including right after a reset) and equal
// the sum of the counts add returned since the reset, and every row added
// since the reset must still read as present, at its position.
func FuzzRowSet(f *testing.F) {
	f.Add(uint64(1), uint16(500), uint8(3), uint32(64), true)
	f.Add(uint64(42), uint16(4000), uint8(0), uint32(1<<20), true)
	f.Add(uint64(7), uint16(3000), uint8(40), uint32(5), false)
	f.Add(uint64(99), uint16(1), uint8(255), uint32(1), true)
	f.Add(uint64(5), uint16(2000), uint8(8), uint32(70000), false)
	f.Fuzz(func(t *testing.T, seed uint64, ops uint16, resetPer256 uint8, maxRows uint32, positions bool) {
		maxRows = maxRows%(1<<20) + 1
		// Deterministic op stream from the seed (splitmix64, as in FuzzLPT).
		x := seed
		next := func() uint64 {
			x += 0x9E3779B97F4A7C15
			z := x
			z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
			z = (z ^ (z >> 27)) * 0x94D049BB133111EB
			return z ^ (z >> 31)
		}
		var rs rowSet
		ref := map[int]int32{}
		base := int32(0) // positions keep counting across resets, as across tables
		rows := 0
		var added int // sum of add's counts since the last reset
		reset := func() {
			rows = int(next()%uint64(maxRows)) + 1
			rs.reset(rows, positions)
			clear(ref)
			added = 0
			if rs.len() != 0 {
				t.Fatalf("len %d after a reset to %d rows", rs.len(), rows)
			}
		}
		check := func() {
			for row, want := range ref {
				if positions {
					if pos, fresh := rs.insert(row, -1); fresh || pos != want {
						t.Fatalf("row %d of %d lost: got (%d, fresh=%v), want position %d", row, rows, pos, fresh, want)
					}
				} else if rs.add(row) == 1 {
					t.Fatalf("row %d of %d lost", row, rows)
				}
			}
			if rs.len() != len(ref) {
				t.Fatalf("len %d, reference holds %d rows", rs.len(), len(ref))
			}
		}
		reset()
		for op := 0; op < int(ops); op++ {
			if uint8(next()) < resetPer256 {
				check()
				base += int32(len(ref))
				reset()
				continue
			}
			// Skewed rows: half the draws land in the table's first 64 rows.
			r := next()
			row := int((r >> 8) % uint64(rows)) // unsigned: int is 32 bits on 386
			if r&1 == 0 {
				row %= 64
				row %= rows
			}
			want, seen := ref[row]
			if !seen {
				want = base + int32(len(ref))
				ref[row] = want
			}
			if positions {
				pos, fresh := rs.insert(row, base+int32(rs.len()))
				if pos != want || fresh == seen {
					t.Fatalf("op %d row %d of %d: got (%d, fresh=%v), want (%d, fresh=%v)", op, row, rows, pos, fresh, want, !seen)
				}
			} else {
				n, wantN := rs.add(row), int32(1)
				if seen {
					wantN = 0
				}
				if n != wantN {
					t.Fatalf("op %d row %d of %d: add returned %d, want %d", op, row, rows, n, wantN)
				}
				added += int(n)
				if rs.len() != added {
					t.Fatalf("op %d: len %d, add returned %d fresh rows since the reset", op, rs.len(), added)
				}
			}
			if rs.len() != len(ref) {
				t.Fatalf("op %d: len %d, reference holds %d rows", op, rs.len(), len(ref))
			}
		}
		check()
	})
}

// A steady-state reset-and-fill cycle over the same tables allocates
// nothing, in either mode: the bitmaps and positions are sized once.
func TestRowSetSteadyStateZeroAllocs(t *testing.T) {
	for _, positions := range []bool{false, true} {
		var rs rowSet
		fill := func() {
			for _, rows := range []int{5000, 1 << 20, 64, 300_000} {
				rs.reset(rows, positions)
				for k := 0; k < 5000; k++ {
					row := k * 7919 % rows
					if positions {
						rs.insert(row, int32(rs.len()))
					}
					if rs.add(row) == 1 && positions {
						t.Fatal("a duplicate reference was added afresh")
					}
				}
			}
		}
		fill() // sizes the set once
		if allocs := testing.AllocsPerRun(10, fill); allocs != 0 {
			t.Fatalf("positions=%v: steady-state reset+fill allocated %v times per run", positions, allocs)
		}
	}
}
