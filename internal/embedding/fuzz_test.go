package embedding

import (
	"encoding/binary"
	"math"
	"testing"

	"pgasemb/internal/sim"
)

// FuzzHashIndex asserts range safety for arbitrary inputs.
func FuzzHashIndex(f *testing.F) {
	f.Add(int64(0), 1)
	f.Add(int64(-1), 50)
	f.Add(int64(1)<<62, 1_000_000)
	f.Fuzz(func(t *testing.T, raw int64, rows int) {
		if rows <= 0 {
			return
		}
		h := HashIndex(raw, rows)
		if h < 0 || h >= rows {
			t.Fatalf("HashIndex(%d, %d) = %d out of range", raw, rows, h)
		}
	})
}

// FuzzLookupPooled checks sum pooling against a direct reference over the
// hashed rows for arbitrary bags: the output matches the summed rows, and an
// empty bag is zeros.
func FuzzLookupPooled(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0xff, 0, 0, 0, 0, 0, 0, 0x80, 9, 9, 9, 9, 9, 9, 9, 9})
	f.Add([]byte("a bag of raw categorical values"))
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7})
	tbl := NewTable(37, 4, sim.NewRNG(11))
	f.Fuzz(func(t *testing.T, raw []byte) {
		bag := make([]int64, len(raw)/8)
		for i := range bag {
			bag[i] = int64(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		out := make([]float32, tbl.Dim)
		tbl.LookupPooled(bag, out)
		if len(bag) == 0 {
			for i, v := range out {
				if v != 0 {
					t.Fatalf("empty bag out[%d] = %v, want 0", i, v)
				}
			}
			return
		}
		for i := range out {
			var want float64
			for _, r := range bag {
				want += float64(hashedRow(tbl, r)[i])
			}
			if math.Abs(float64(out[i])-want) > 1e-4*float64(len(bag)) {
				t.Fatalf("out[%d] = %v, want %v", i, out[i], want)
			}
		}
	})
}
