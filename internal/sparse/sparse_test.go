package sparse

import "testing"

func validBag(id int) FeatureBag {
	return FeatureBag{
		FeatureID: id,
		Offsets:   []int32{0, 2, 2, 5},
		Indices:   []int64{10, 20, 30, 40, 50},
	}
}

func TestFeatureBagAccessors(t *testing.T) {
	fb := validBag(3)
	if fb.BatchSize() != 3 {
		t.Fatalf("BatchSize = %d", fb.BatchSize())
	}
	if got := fb.Bag(0); len(got) != 2 || got[0] != 10 || got[1] != 20 {
		t.Fatalf("Bag(0) = %v", got)
	}
	if got := fb.Bag(1); len(got) != 0 {
		t.Fatalf("Bag(1) should be NULL (empty), got %v", got)
	}
	if fb.PoolingFactor(2) != 3 {
		t.Fatalf("PoolingFactor(2) = %d", fb.PoolingFactor(2))
	}
	if fb.TotalIndices() != 5 {
		t.Fatalf("TotalIndices = %d", fb.TotalIndices())
	}
	if err := fb.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFeatureBagValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		fb   FeatureBag
	}{
		{"no offsets", FeatureBag{}},
		{"nonzero start", FeatureBag{Offsets: []int32{1, 2}, Indices: []int64{0, 0}}},
		{"decreasing", FeatureBag{Offsets: []int32{0, 3, 2}, Indices: []int64{0, 0, 0}}},
		{"length mismatch", FeatureBag{Offsets: []int32{0, 2}, Indices: []int64{7}}},
	}
	for _, c := range cases {
		if c.fb.Validate() == nil {
			t.Errorf("%s not rejected", c.name)
		}
	}
}

func TestBatchValidate(t *testing.T) {
	b := &Batch{Size: 3, Features: []FeatureBag{validBag(0), validBag(1)}}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if b.TotalIndices() != 10 {
		t.Fatalf("TotalIndices = %d", b.TotalIndices())
	}
	bad := &Batch{Size: 4, Features: []FeatureBag{validBag(0)}}
	if bad.Validate() == nil {
		t.Fatal("batch-size mismatch not rejected")
	}
}

func TestFeatureByID(t *testing.T) {
	b := &Batch{Size: 3, Features: []FeatureBag{validBag(7), validBag(2)}}
	if fb := b.FeatureByID(2); fb == nil || fb.FeatureID != 2 {
		t.Fatal("FeatureByID(2) failed")
	}
	if b.FeatureByID(99) != nil {
		t.Fatal("FeatureByID(99) should be nil")
	}
}

func TestPartitionByFeature(t *testing.T) {
	b := &Batch{Size: 3, Features: []FeatureBag{validBag(0), validBag(1), validBag(2)}}
	parts, err := PartitionByFeature(b, [][]int{{0, 2}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 2 {
		t.Fatalf("parts = %d", len(parts))
	}
	if len(parts[0].Features) != 2 || parts[0].Features[0].FeatureID != 0 || parts[0].Features[1].FeatureID != 2 {
		t.Fatalf("GPU0 features wrong: %+v", parts[0].Features)
	}
	if len(parts[1].Features) != 1 || parts[1].Features[0].FeatureID != 1 {
		t.Fatalf("GPU1 features wrong: %+v", parts[1].Features)
	}
	// Each partition holds the FULL batch.
	if parts[1].Size != 3 || parts[1].Features[0].BatchSize() != 3 {
		t.Fatal("partition lost batch rows")
	}
}

func TestPartitionErrors(t *testing.T) {
	b := &Batch{Size: 3, Features: []FeatureBag{validBag(0), validBag(1)}}
	if _, err := PartitionByFeature(b, [][]int{{0, 9}}); err == nil {
		t.Fatal("unknown feature accepted")
	}
	if _, err := PartitionByFeature(b, [][]int{{0, 0}, {1}}); err == nil {
		t.Fatal("duplicate assignment accepted")
	}
	if _, err := PartitionByFeature(b, [][]int{{0}}); err == nil {
		t.Fatal("incomplete plan accepted")
	}
}

func TestMinibatchRangeEven(t *testing.T) {
	lo, hi := MinibatchRange(8, 2, 0)
	if lo != 0 || hi != 4 {
		t.Fatalf("rank0 = [%d,%d)", lo, hi)
	}
	lo, hi = MinibatchRange(8, 2, 1)
	if lo != 4 || hi != 8 {
		t.Fatalf("rank1 = [%d,%d)", lo, hi)
	}
}

func TestMinibatchRangeRemainder(t *testing.T) {
	// 10 samples, 3 ranks: 4, 3, 3.
	sizes := []int{}
	prevHi := 0
	for r := 0; r < 3; r++ {
		lo, hi := MinibatchRange(10, 3, r)
		if lo != prevHi {
			t.Fatalf("rank %d starts at %d, want %d", r, lo, prevHi)
		}
		sizes = append(sizes, hi-lo)
		prevHi = hi
	}
	if prevHi != 10 {
		t.Fatalf("ranges do not cover batch: end %d", prevHi)
	}
	if sizes[0] != 4 || sizes[1] != 3 || sizes[2] != 3 {
		t.Fatalf("sizes = %v", sizes)
	}
}

func TestMinibatchRangePanics(t *testing.T) {
	for _, c := range [][3]int{{8, 0, 0}, {8, 2, 2}, {8, 2, -1}} {
		c := c
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MinibatchRange%v did not panic", c)
				}
			}()
			MinibatchRange(c[0], c[1], c[2])
		}()
	}
}
