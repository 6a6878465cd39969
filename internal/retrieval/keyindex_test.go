package retrieval

import (
	"math"
	"testing"
)

// FuzzKeyIndex drives random insert/reset sequences against a map reference:
// every insert must return the reference's first-seen position and fresh
// flag, len must track the reference after every step (including right
// after a reset), and every key of the live generation must keep its
// position across the table's growth.
func FuzzKeyIndex(f *testing.F) {
	f.Add(uint64(1), uint16(500), uint8(3), uint32(64))
	f.Add(uint64(42), uint16(4000), uint8(0), uint32(1<<20))
	f.Add(uint64(7), uint16(3000), uint8(40), uint32(5))
	f.Add(uint64(99), uint16(1), uint8(255), uint32(1))
	f.Fuzz(func(t *testing.T, seed uint64, ops uint16, resetPer256 uint8, keySpace uint32) {
		if keySpace == 0 {
			keySpace = 1
		}
		// Deterministic op stream from the seed (splitmix64, as in FuzzLPT).
		x := seed
		next := func() uint64 {
			x += 0x9E3779B97F4A7C15
			z := x
			z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
			z = (z ^ (z >> 27)) * 0x94D049BB133111EB
			return z ^ (z >> 31)
		}
		var ki keyIndex
		ref := map[uint64]int32{}
		check := func() {
			for key, want := range ref {
				if pos, fresh := ki.insert(key); fresh || pos != want {
					t.Fatalf("key %#x lost: got (%d, fresh=%v), want position %d", key, pos, fresh, want)
				}
			}
		}
		for op := 0; op < int(ops); op++ {
			if uint8(next()) < resetPer256 {
				check()
				ki.reset()
				clear(ref)
				if ki.len() != 0 {
					t.Fatalf("op %d: len %d after reset", op, ki.len())
				}
				continue
			}
			// Keys shaped like the compiler's: table index << 32 | row.
			r := next()
			key := (r>>59)<<32 | (r>>8)%uint64(keySpace)
			want, seen := ref[key]
			if !seen {
				want = int32(len(ref))
				ref[key] = want
			}
			pos, fresh := ki.insert(key)
			if pos != want || fresh == seen {
				t.Fatalf("op %d key %#x: got (%d, fresh=%v), want (%d, fresh=%v)", op, key, pos, fresh, want, !seen)
			}
			if ki.len() != len(ref) {
				t.Fatalf("op %d: len %d, reference holds %d keys", op, ki.len(), len(ref))
			}
		}
		check()
	})
}

// TestKeyIndexGenerationWrap forces the generation counter through zero: a
// key stamped in generation 1 long ago must not read as live when the
// counter wraps back to 1.
func TestKeyIndexGenerationWrap(t *testing.T) {
	var ki keyIndex
	ki.reset()
	for _, key := range []uint64{0xABC, 0xDEF} {
		if _, fresh := ki.insert(key); !fresh {
			t.Fatalf("first insert of %#x not fresh", key)
		}
	}
	if ki.gen != 1 {
		t.Fatalf("generation %d after the first reset, want 1", ki.gen)
	}
	// Skip ahead to the last generation; the next reset wraps to 1, where
	// both slots above still carry stamp 1.
	ki.gen = math.MaxUint32
	ki.reset()
	if ki.gen == 0 || ki.len() != 0 {
		t.Fatalf("after the wrap: generation %d, len %d; want a live nonzero generation and no keys", ki.gen, ki.len())
	}
	for i, key := range []uint64{0xDEF, 0xABC} {
		if pos, fresh := ki.insert(key); !fresh || pos != int32(i) {
			t.Fatalf("key %#x after the wrap: got (%d, fresh=%v), want (%d, true)", key, pos, fresh, i)
		}
	}
}

func TestKeyIndexSteadyStateZeroAllocs(t *testing.T) {
	var ki keyIndex
	fill := func() {
		ki.reset()
		for k := uint64(0); k < 5000; k++ {
			ki.insert(k * 7919)
			ki.insert(k * 7919) // a duplicate reference
		}
	}
	fill() // grows the table once
	if allocs := testing.AllocsPerRun(10, fill); allocs != 0 {
		t.Fatalf("steady-state reset+insert allocated %v times per run", allocs)
	}
}
