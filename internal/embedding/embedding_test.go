package embedding

import (
	"math"
	"testing"
	"testing/quick"

	"pgasemb/internal/sim"
)

func TestHashIndexInRange(t *testing.T) {
	for _, rows := range []int{1, 2, 50, 1_000_000} {
		for raw := int64(-5); raw < 100; raw++ {
			h := HashIndex(raw, rows)
			if h < 0 || h >= rows {
				t.Fatalf("HashIndex(%d, %d) = %d", raw, rows, h)
			}
		}
	}
}

func TestHashIndexDeterministic(t *testing.T) {
	if HashIndex(12345, 1000) != HashIndex(12345, 1000) {
		t.Fatal("hash not deterministic")
	}
}

func TestHashIndexSpreads(t *testing.T) {
	const rows = 64
	counts := make([]int, rows)
	for raw := int64(0); raw < 64000; raw++ {
		counts[HashIndex(raw, rows)]++
	}
	for i, c := range counts {
		if math.Abs(float64(c)-1000) > 5*math.Sqrt(1000) {
			t.Errorf("bucket %d count %d deviates >5 sigma", i, c)
		}
	}
}

func TestHashIndexInvalidRowsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("rows=0 did not panic")
		}
	}()
	HashIndex(1, 0)
}

// HashRows is HashIndex element by element: on power-of-two row counts
// (the masked path, rows = 1 included), on others (the modulo path, the
// int32 limit included), for negative, zero and extreme raws. It writes
// exactly len(raws) rows and panics where HashIndex does.
func TestHashRowsMatchesHashIndex(t *testing.T) {
	rng := sim.NewRNG(5)
	raws := []int64{0, 1, -1, 2, -2, math.MaxInt64, math.MinInt64, 1 << 40, -(1 << 40)}
	for len(raws) < 300 {
		raws = append(raws, int64(rng.Uint64()))
	}
	for _, rows := range []int{1, 2, 3, 7, 64, 100, 4096, 4097, 262_144, 1_000_000, 1 << 30, math.MaxInt32} {
		dst := make([]int32, len(raws)+1)
		dst[len(raws)] = -7
		HashRows(dst, raws, rows)
		for i, raw := range raws {
			if got, want := int(dst[i]), HashIndex(raw, rows); got != want {
				t.Fatalf("HashRows(rows=%d)[%d] for raw %d = %d, HashIndex = %d", rows, i, raw, got, want)
			}
		}
		if dst[len(raws)] != -7 {
			t.Fatalf("rows=%d: HashRows wrote past len(raws)", rows)
		}
	}
	for _, rows := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("HashRows into %d rows did not panic", rows)
				}
			}()
			HashRows(make([]int32, 1), raws[:1], rows)
		}()
	}
}

func TestNewTableInit(t *testing.T) {
	rng := sim.NewRNG(1)
	tbl := NewTable(100, 16, rng)
	if tbl.Bytes() != 100*16*4 {
		t.Fatalf("Bytes = %d", tbl.Bytes())
	}
	scale := 1 / math.Sqrt(16)
	w := tbl.Weights.Data()
	for _, v := range w {
		if float64(v) < -scale || float64(v) >= scale {
			t.Fatalf("weight %v outside ±1/sqrt(d)", v)
		}
	}
}

func TestNewTablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid table did not panic")
		}
	}()
	NewTable(0, 4, sim.NewRNG(1))
}

// hashedRow returns the weight row a raw index lands on.
func hashedRow(tbl *Table, raw int64) []float32 {
	r := HashIndex(raw, tbl.Rows)
	return tbl.Weights.Data()[r*tbl.Dim : (r+1)*tbl.Dim]
}

func TestLookupPooledSum(t *testing.T) {
	tbl := NewTable(50, 4, sim.NewRNG(2))
	bag := []int64{7, 19, 7} // duplicate raw index counts twice
	out := make([]float32, 4)
	tbl.LookupPooled(bag, out)
	want := make([]float32, 4)
	for _, raw := range bag {
		for i, v := range hashedRow(tbl, raw) {
			want[i] += v
		}
	}
	for i := range want {
		if math.Abs(float64(out[i]-want[i])) > 1e-6 {
			t.Fatalf("sum pooling out[%d] = %v, want %v", i, out[i], want[i])
		}
	}
}

func TestLookupEmptyBagZeros(t *testing.T) {
	tbl := NewTable(50, 4, sim.NewRNG(5))
	out := []float32{9, 9, 9, 9}
	tbl.LookupPooled(nil, out)
	for _, v := range out {
		if v != 0 {
			t.Fatal("NULL bag must produce zeros")
		}
	}
}

func TestLookupValidation(t *testing.T) {
	tbl := NewTable(50, 4, sim.NewRNG(6))
	defer func() {
		if recover() == nil {
			t.Error("wrong out length did not panic")
		}
	}()
	tbl.LookupPooled([]int64{1}, make([]float32, 3))
}

func TestTableWisePlan(t *testing.T) {
	plan := TableWisePlan(96, 4)
	for _, ids := range plan {
		if len(ids) != 24 {
			t.Fatalf("plan = %v", plan)
		}
	}
	if plan[0][0] != 0 || plan[3][23] != 95 {
		t.Fatalf("plan blocks wrong: %v ... %v", plan[0], plan[3])
	}
	// Remainder case: 10 tables on 3 GPUs -> 4, 3, 3.
	plan = TableWisePlan(10, 3)
	if len(plan[0]) != 4 || len(plan[1]) != 3 || len(plan[2]) != 3 {
		t.Fatalf("remainder plan = %v", plan)
	}
}

func TestPlansCoverAllTablesProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		tables := rng.IntRange(0, 40)
		gpus := rng.IntRange(1, 6)
		plan := TableWisePlan(tables, gpus)
		seen := make(map[int]bool)
		for _, ids := range plan {
			for _, id := range ids {
				if id < 0 || id >= tables || seen[id] {
					return false
				}
				seen[id] = true
			}
		}
		if len(seen) != tables {
			return false
		}
		// Balance: shard sizes differ by at most 1.
		minS, maxS := len(plan[0]), len(plan[0])
		for _, ids := range plan {
			minS, maxS = min(minS, len(ids)), max(maxS, len(ids))
		}
		return maxS-minS <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("TableWisePlan gpus=0 did not panic")
			}
		}()
		TableWisePlan(4, 0)
	}()
}

func TestNewCollection(t *testing.T) {
	t.Run("uniform-rows", func(t *testing.T) {
		ids := []int{4, 9, 2}
		c := NewCollection(ids, 100, 8, sim.NewRNG(1))
		ids[0] = 99 // the collection keeps its own copy
		if c.FeatureIDs[0] != 4 || len(c.Tables) != 3 || c.Dim != 8 {
			t.Fatalf("collection %+v", c)
		}
		for i, tbl := range c.Tables {
			if tbl.Rows != 100 || tbl.Dim != 8 {
				t.Fatalf("table %d is %dx%d, want 100x8", i, tbl.Rows, tbl.Dim)
			}
		}
		if c.Bytes() != 3*100*8*4 {
			t.Fatalf("Bytes = %d, want %d", c.Bytes(), 3*100*8*4)
		}
	})
	// Tables draw from one stream in order, so the same seed gives the same
	// weights and different tables get different ones.
	t.Run("deterministic-per-seed", func(t *testing.T) {
		a := NewCollection([]int{0, 1}, 16, 4, sim.NewRNG(7))
		b := NewCollection([]int{0, 1}, 16, 4, sim.NewRNG(7))
		for i := range a.Tables {
			wa, wb := a.Tables[i].Weights.Data(), b.Tables[i].Weights.Data()
			for j := range wa {
				if wa[j] != wb[j] {
					t.Fatalf("table %d weight %d differs across same-seed builds", i, j)
				}
			}
		}
		if a.Tables[0].Weights.Data()[0] == a.Tables[1].Weights.Data()[0] {
			t.Fatal("two tables start with the same weight")
		}
	})
}
