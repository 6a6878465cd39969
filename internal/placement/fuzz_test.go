package placement

import "testing"

// FuzzLPT asserts the planner's core invariant on arbitrary inputs: whenever
// LPT returns a plan at all, that plan assigns every table exactly once and
// respects the per-GPU capacity; otherwise it returns an error (never a
// malformed plan, never a panic). Without a capacity bound the plan's
// makespan must also respect the LPT approximation bound.
func FuzzLPT(f *testing.F) {
	f.Add(uint64(1), 8, 4, int64(0))
	f.Add(uint64(42), 16, 3, int64(300))
	f.Add(uint64(7), 1, 1, int64(1))
	f.Add(uint64(99), 33, 7, int64(150))
	f.Fuzz(func(t *testing.T, seed uint64, tables, gpus int, capacity int64) {
		if tables <= 0 || tables > 256 || gpus <= 0 || gpus > 64 {
			t.Skip()
		}
		if capacity < 0 {
			capacity = -capacity
		}
		// Derive deterministic loads and footprints from the seed with a
		// splitmix-style mixer, so every fuzz input is reproducible.
		x := seed
		next := func() uint64 {
			x += 0x9E3779B97F4A7C15
			z := x
			z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
			z = (z ^ (z >> 27)) * 0x94D049BB133111EB
			return z ^ (z >> 31)
		}
		loads := make([]float64, tables)
		bytes := make([]int64, tables)
		for i := range loads {
			loads[i] = float64(next() % 1000)
			bytes[i] = int64(next()%100) + 1
		}
		plan, err := LPT(loads, bytes, gpus, capacity)
		if err != nil {
			return // unplaceable under capacity: a descriptive error is the contract
		}
		if len(plan) != gpus {
			t.Fatalf("plan has %d shards for %d GPUs", len(plan), gpus)
		}
		if err := ValidatePlan(plan, tables, bytes, capacity); err != nil {
			t.Fatalf("LPT returned an invalid plan: %v", err)
		}
		if capacity != 0 {
			return
		}
		// Unbounded LPT is list scheduling, so its makespan stays within the
		// loose 4/3 form of Graham's bound: 4/3 of the mean GPU load plus the
		// heaviest single table.
		var total, maxLoad, worst float64
		for _, l := range loads {
			total += l
			maxLoad = max(maxLoad, l)
		}
		for _, shard := range plan {
			var sum float64
			for _, tbl := range shard {
				sum += loads[tbl]
			}
			worst = max(worst, sum)
		}
		if bound := total/float64(gpus)*4/3 + maxLoad; worst > bound {
			t.Fatalf("LPT makespan %v above bound %v (mean %v, heaviest table %v)",
				worst, bound, total/float64(gpus), maxLoad)
		}
	})
}
