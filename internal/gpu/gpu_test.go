package gpu

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"pgasemb/internal/sim"
)

func approxEq(a, b sim.Time) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-12
}

func testDevice() (*sim.Env, *Device) {
	env := sim.NewEnv()
	return env, NewDevice(env, 0, V100Params())
}

func TestV100ParamsValid(t *testing.T) {
	if err := V100Params().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsEachField(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Params)
	}{
		{"MemoryCapacity", func(p *Params) { p.MemoryCapacity = 0 }},
		{"HBMBandwidth", func(p *Params) { p.HBMBandwidth = -1 }},
		{"GatherEfficiency", func(p *Params) { p.GatherEfficiency = 1.5 }},
		{"StreamEfficiency", func(p *Params) { p.StreamEfficiency = 0 }},
		{"UnpackEfficiency", func(p *Params) { p.UnpackEfficiency = -0.1 }},
		{"PeakFLOPS", func(p *Params) { p.PeakFLOPS = 0 }},
		{"MLPEfficiency", func(p *Params) { p.MLPEfficiency = 2 }},
		{"KernelLaunch", func(p *Params) { p.KernelLaunch = -1 }},
		{"StreamSync", func(p *Params) { p.StreamSync = -1 }},
		{"SaturationItems", func(p *Params) { p.SaturationItems = -1 }},
		{"ItemOverhead", func(p *Params) { p.ItemOverhead = -1 }},
		{"RemoteIssueOverhead", func(p *Params) { p.RemoteIssueOverhead = -1 }},
		{"RemotePeerChunkOverhead", func(p *Params) { p.RemotePeerChunkOverhead = -1 }},
		{"UnpackFixed", func(p *Params) { p.UnpackFixed = -1 }},
		{"UnpackPerSegment", func(p *Params) { p.UnpackPerSegment = -1 }},
	}
	for _, m := range mutations {
		p := V100Params()
		m.mut(&p)
		err := p.Validate()
		if err == nil {
			t.Errorf("mutation of %s not rejected", m.name)
			continue
		}
		if !strings.Contains(err.Error(), m.name) {
			t.Errorf("error %q does not name field %s", err, m.name)
		}
	}
}

func TestNewDeviceRejectsBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewDevice with invalid params did not panic")
		}
	}()
	p := V100Params()
	p.HBMBandwidth = 0
	NewDevice(sim.NewEnv(), 0, p)
}

func TestAllocAccounting(t *testing.T) {
	_, d := testDevice()
	if _, err := d.Alloc("tables", 10<<30); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Alloc("outputs", 1<<30); err != nil {
		t.Fatal(err)
	}
	// 11 GB of the 32 GB card are in use: 22 GB no longer fit, 21 GB do.
	if _, err := d.Alloc("too-big", 22<<30); err == nil {
		t.Fatal("allocation beyond the remaining capacity succeeded")
	}
	if _, err := d.Alloc("rest", 21<<30); err != nil {
		t.Fatalf("allocation of the remaining capacity failed: %v", err)
	}
}

func TestAllocOverCapacityFails(t *testing.T) {
	_, d := testDevice()
	if _, err := d.Alloc("huge", 33<<30); err == nil {
		t.Fatal("allocation beyond 32GB succeeded")
	}
	// Paper's strong-scaling config fits: 96 tables × 1M rows × 64 dims × 4B.
	bytes := int64(96) * 1_000_000 * 64 * 4
	if _, err := d.Alloc("strongscale", bytes); err != nil {
		t.Fatalf("paper's 96-table config should fit in 32GB: %v", err)
	}
}

func TestAllocDuplicateNameFails(t *testing.T) {
	_, d := testDevice()
	if _, err := d.Alloc("x", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Alloc("x", 1); err == nil {
		t.Fatal("duplicate allocation name succeeded")
	}
}

func TestAllocNegativeFails(t *testing.T) {
	_, d := testDevice()
	if _, err := d.Alloc("neg", -1); err == nil {
		t.Fatal("negative allocation succeeded")
	}
}

func TestBufferAccessors(t *testing.T) {
	_, d := testDevice()
	b, err := d.Alloc("weights", 128)
	if err != nil {
		t.Fatal(err)
	}
	if b.Bytes() != 128 || b.Name() != "weights" {
		t.Fatalf("accessors: %d %q", b.Bytes(), b.Name())
	}
}

func TestStreamSerializesKernels(t *testing.T) {
	env, d := testDevice()
	s := d.NewStream("s0")
	var ends []sim.Time
	env.Go("host", func(p *sim.Proc) {
		_, e1 := s.Launch(p, 10*sim.Millisecond)
		_, e2 := s.Launch(p, 5*sim.Millisecond)
		ends = append(ends, e1, e2)
	})
	env.Run()
	launch := d.Params().KernelLaunch
	wantE1 := launch + 10*sim.Millisecond
	// The second kernel queues behind the first (which outlives its own
	// launch overhead), so it starts at wantE1 and ends 5 ms later.
	wantE2 := launch + 15*sim.Millisecond
	if !approxEq(ends[0], wantE1) {
		t.Fatalf("first kernel end = %v, want %v", ends[0], wantE1)
	}
	if !approxEq(ends[1], wantE2) {
		t.Fatalf("second kernel end = %v, want %v", ends[1], wantE2)
	}
}

func TestStreamSynchronizeWaitsAndCosts(t *testing.T) {
	env, d := testDevice()
	s := d.NewStream("s0")
	var doneAt sim.Time
	env.Go("host", func(p *sim.Proc) {
		s.Launch(p, 1*sim.Millisecond)
		s.Synchronize(p)
		doneAt = p.Now()
	})
	env.Run()
	want := d.Params().KernelLaunch + 1*sim.Millisecond + d.Params().StreamSync
	if doneAt != want {
		t.Fatalf("sync completed at %v, want %v", doneAt, want)
	}
}

func TestStreamsIndependent(t *testing.T) {
	env, d := testDevice()
	a, b := d.NewStream("a"), d.NewStream("b")
	env.Go("host", func(p *sim.Proc) {
		_, endA := a.Launch(p, 10*sim.Millisecond)
		_, endB := b.Launch(p, 1*sim.Millisecond)
		if endB >= endA {
			t.Errorf("independent streams serialized: endA=%v endB=%v", endA, endB)
		}
	})
	env.Run()
}

func TestNegativeKernelDurationPanics(t *testing.T) {
	env, d := testDevice()
	s := d.NewStream("s")
	panicked := false
	env.Go("host", func(p *sim.Proc) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		s.Launch(p, -1)
	})
	env.Run()
	if !panicked {
		t.Fatal("negative duration did not panic")
	}
}

func TestOccupancyUtilShape(t *testing.T) {
	_, d := testDevice()
	if d.params.occupancyUtil(0) != 0 {
		t.Fatal("zero items should have zero utilisation")
	}
	sat := int(d.Params().SaturationItems)
	if got := d.params.occupancyUtil(sat / 2); got < 0.49 || got > 0.51 {
		t.Fatalf("util at half saturation = %v, want ~0.5", got)
	}
	if d.params.occupancyUtil(sat) != 1 || d.params.occupancyUtil(100*sat) != 1 {
		t.Fatal("util should be exactly 1 at and beyond saturation")
	}
	if d.params.occupancyUtil(10) >= d.params.occupancyUtil(100) {
		t.Fatal("util should be increasing below saturation")
	}
}

func TestStrongScalingComputePlateau(t *testing.T) {
	// Below saturation, halving both traffic and work items leaves kernel
	// time unchanged — the paper's strong-scaling compute plateau.
	_, d := testDevice()
	sat := int(d.Params().SaturationItems)
	t2 := d.GatherKernelCost(4e9, 0, sat/2)
	t4 := d.GatherKernelCost(2e9, 0, sat/4)
	if ratio := t4 / t2; ratio < 0.999 || ratio > 1.001 {
		t.Fatalf("plateau broken: t2=%v t4=%v", t2, t4)
	}
}

func TestGatherKernelCostScalesWithBytes(t *testing.T) {
	// With the per-item overhead zeroed, cost is linear in bytes at fixed
	// occupancy.
	p := V100Params()
	p.ItemOverhead = 0
	d := NewDevice(sim.NewEnv(), 0, p)
	const items = 1 << 20
	c1 := d.GatherKernelCost(1e9, 0, items)
	c2 := d.GatherKernelCost(2e9, 0, items)
	if c2 <= c1 {
		t.Fatal("cost not increasing in read bytes")
	}
	ratio := c2 / c1
	if ratio < 1.99 || ratio > 2.01 {
		t.Fatalf("cost should be linear in bytes at fixed occupancy: ratio=%v", ratio)
	}
}

func TestGatherKernelLatencyLimited(t *testing.T) {
	// Halving bytes AND work items together (strong scaling) must shrink
	// runtime by less than 2x once the work drops below saturation.
	_, d := testDevice()
	sat := int(d.Params().SaturationItems)
	full := d.GatherKernelCost(16e9, 0, sat)
	half := d.GatherKernelCost(8e9, 0, sat/2)
	if half*2 <= full {
		t.Fatalf("no latency-limiting visible: full=%v half=%v", full, half)
	}
}

func TestChunkCostsSumToKernelCost(t *testing.T) {
	_, d := testDevice()
	const items = 1 << 19 // below saturation: utilisation matters
	total := d.GatherKernelCost(1e9, 2e8, items)
	var sum sim.Duration
	const chunks = 7
	for k := 0; k < chunks; k++ {
		lo := items * k / chunks
		hi := items * (k + 1) / chunks
		frac := float64(hi-lo) / float64(items)
		sum += d.GatherKernelChunkCost(1e9*frac, 2e8*frac, hi-lo, items)
	}
	diff := sum - total
	if diff < 0 {
		diff = -diff
	}
	if diff > 1e-12 {
		t.Fatalf("chunk costs sum to %v, kernel cost %v", sum, total)
	}
}

func TestChunkCostValidation(t *testing.T) {
	_, d := testDevice()
	defer func() {
		if recover() == nil {
			t.Error("chunkItems > kernelItems did not panic")
		}
	}()
	d.GatherKernelChunkCost(1, 1, 10, 5)
}

func TestGatherWritesCheaperThanGatherReads(t *testing.T) {
	_, d := testDevice()
	r := d.GatherKernelCost(1e9, 0, 1<<20)
	w := d.GatherKernelCost(0, 1e9, 1<<20)
	if w >= r {
		t.Fatalf("streaming writes (%v) should beat gathered reads (%v)", w, r)
	}
}

func TestRemoteIssueCostLinear(t *testing.T) {
	_, d := testDevice()
	if d.RemoteIssueCost(0) != 0 {
		t.Fatal("zero stores should cost nothing")
	}
	one := d.RemoteIssueCost(1)
	million := d.RemoteIssueCost(1_000_000)
	if million != 1_000_000*one {
		t.Fatalf("issue cost not linear: %v vs %v", million, 1_000_000*one)
	}
}

func TestUnpackSlowerThanCopy(t *testing.T) {
	// The whole point of the unpack parameter: rearrangement through the
	// framework is far slower than a tight copy kernel.
	_, d := testDevice()
	p := d.Params()
	copyCost := 2 * 1e9 / (p.HBMBandwidth * p.StreamEfficiency) // read + write at streaming rate
	if d.UnpackKernelCost(1e9, 1) <= copyCost {
		t.Fatal("unpack should cost more than a plain copy")
	}
}

func TestUnpackGrowsWithSegments(t *testing.T) {
	// Even with FEWER received bytes, more source segments can cost more —
	// the paper's strong-scaling sync+unpack trend.
	_, d := testDevice()
	few := d.UnpackKernelCost(100e6, 1)
	many := d.UnpackKernelCost(75e6, 3)
	if many <= few {
		t.Fatalf("segment overhead too weak: 3 segs/75MB = %v <= 1 seg/100MB = %v", many, few)
	}
}

func TestMLPKernelRoofline(t *testing.T) {
	_, d := testDevice()
	// Compute-bound: many flops, few bytes.
	cb := d.MLPKernelCost(1e12, 1e3)
	if want := 1e12 / (d.Params().PeakFLOPS * d.Params().MLPEfficiency); cb != want {
		t.Fatalf("compute-bound cost = %v, want %v", cb, want)
	}
	// Memory-bound: few flops, many bytes.
	mb := d.MLPKernelCost(1e3, 1e9)
	if want := 1e9 / (d.Params().HBMBandwidth * d.Params().StreamEfficiency); mb != want {
		t.Fatalf("memory-bound cost = %v, want %v", mb, want)
	}
}

func TestKernelCostsNonNegativeProperty(t *testing.T) {
	_, d := testDevice()
	f := func(rb, wb uint32, items uint16) bool {
		c := d.GatherKernelCost(float64(rb), float64(wb), int(items))
		return c >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCostPanicsOnNegativeInputs(t *testing.T) {
	_, d := testDevice()
	calls := []func(){
		func() { d.GatherKernelCost(-1, 0, 1) },
		func() { d.GatherKernelCost(0, -1, 1) },
		func() { d.GatherKernelCost(0, 0, -1) },
		func() { d.UnpackKernelCost(-1, 1) },
		func() { d.UnpackKernelCost(1, -1) },
		func() { d.MLPKernelCost(-1, 0) },
		func() { d.RemoteIssueCost(-1) },
		func() { d.params.HotReadEquivalent(-1) },
		func() { d.ExpandKernelCost(-1, 0, 256) },
		func() { d.ExpandKernelCost(0, -1, 256) },
		func() { d.EncodeKernelCost(-1, 0) },
		func() { d.EncodeKernelCost(0, -1) },
		func() { d.DecodeKernelCost(-1, 0) },
		func() { d.DecodeKernelCost(0, -1) },
	}
	for i, call := range calls {
		call := call
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("call %d did not panic on negative input", i)
				}
			}()
			call()
		}()
	}
}

func TestMultipleDevicesIndependentMemory(t *testing.T) {
	env := sim.NewEnv()
	d0 := NewDevice(env, 0, V100Params())
	d1 := NewDevice(env, 1, V100Params())
	if _, err := d0.Alloc("x", 30<<30); err != nil {
		t.Fatal(err)
	}
	if _, err := d1.Alloc("x", 30<<30); err != nil {
		t.Fatalf("second device shares the first's memory: %v", err)
	}
}

func TestStreamManyKernelsAccumulate(t *testing.T) {
	env, d := testDevice()
	s := d.NewStream("s")
	env.Go("host", func(p *sim.Proc) {
		var last sim.Time
		for i := 0; i < 50; i++ {
			_, end := s.Launch(p, sim.Millisecond)
			if end <= last {
				t.Errorf("kernel %d ends at %v, not after %v", i, end, last)
			}
			last = end
		}
	})
	env.Run()
}

func TestValidateRejectsHotRowEfficiency(t *testing.T) {
	for _, eff := range []float64{-0.1, 1.5} {
		p := V100Params()
		p.HotRowEfficiency = eff
		if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "HotRowEfficiency") {
			t.Errorf("HotRowEfficiency %g: err = %v", eff, err)
		}
	}
	p := V100Params()
	p.HotRowEfficiency = 0 // "no distinct hot path" is valid
	if err := p.Validate(); err != nil {
		t.Fatalf("HotRowEfficiency 0 rejected: %v", err)
	}
}

// withParams returns a device with one parameter set changed.
func withParams(mut func(*Params)) *Device {
	p := V100Params()
	mut(&p)
	return NewDevice(sim.NewEnv(), 0, p)
}

func TestHotReadEquivalent(t *testing.T) {
	t.Run("identity-without-hot-path", func(t *testing.T) {
		d := withParams(func(p *Params) { p.HotRowEfficiency = 0 })
		if got := d.params.HotReadEquivalent(4096); got != 4096 {
			t.Fatalf("got %g, want 4096", got)
		}
	})
	t.Run("scaled-by-efficiency-ratio", func(t *testing.T) {
		_, d := testDevice()
		p := d.Params()
		want := 4096 * p.GatherEfficiency / p.HotRowEfficiency
		if got := p.HotReadEquivalent(4096); got != want {
			t.Fatalf("got %g, want %g", got, want)
		}
	})
	// Pricing hot bytes through the equivalent must cost what reading them
	// at HotRowEfficiency costs.
	t.Run("prices-at-hot-efficiency", func(t *testing.T) {
		_, d := testDevice()
		p := d.Params()
		items := int(p.SaturationItems) // util 1
		hot := 1 << 24
		got := d.GatherKernelCost(p.HotReadEquivalent(float64(hot)), 0, items)
		want := float64(hot)/(p.HBMBandwidth*p.HotRowEfficiency) + sim.Duration(items)*p.ItemOverhead
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("cost %g, want %g", got, want)
		}
	})
}

func TestExpandKernelCost(t *testing.T) {
	t.Run("zero-work-is-free", func(t *testing.T) {
		_, d := testDevice()
		if c := d.ExpandKernelCost(0, 0, 256); c != 0 {
			t.Fatalf("cost %g, want 0", c)
		}
	})
	t.Run("analytic", func(t *testing.T) {
		_, d := testDevice()
		p := d.Params()
		refs, out, vec := int64(1000), 300, 256
		want := float64(refs)*float64(vec)/(p.HBMBandwidth*p.HotRowEfficiency) +
			(float64(out)*float64(vec)+float64(refs)*4)/(p.HBMBandwidth*p.StreamEfficiency)
		if got := d.ExpandKernelCost(refs, out, vec); math.Abs(got-want) > 1e-15 {
			t.Fatalf("cost %g, want %g", got, want)
		}
	})
	t.Run("falls-back-to-gather-efficiency", func(t *testing.T) {
		_, hot := testDevice()
		cold := withParams(func(p *Params) { p.HotRowEfficiency = 0 })
		if c, h := cold.ExpandKernelCost(1000, 300, 256), hot.ExpandKernelCost(1000, 300, 256); c <= h {
			t.Fatalf("expansion without a hot path (%g) not slower than with one (%g)", c, h)
		}
	})
	// No per-item overhead and no occupancy penalty: a pure streaming
	// kernel cheaper than gathering the same references from the tables.
	t.Run("cheaper-than-gather", func(t *testing.T) {
		_, d := testDevice()
		refs, out, vec := int64(50_000), 10_000, 256
		gather := d.GatherKernelCost(float64(refs)*float64(vec), float64(out)*float64(vec), out)
		if e := d.ExpandKernelCost(refs, out, vec); e >= gather {
			t.Fatalf("expand %g not below gather %g", e, gather)
		}
	})
}

func TestEncodeDecodeSymmetric(t *testing.T) {
	_, d := testDevice()
	p := d.Params()
	raw, enc := float64(1<<20), float64(1<<18) // fp32 -> 8-bit rows
	want := (raw + enc) / (p.HBMBandwidth * p.StreamEfficiency)
	if e := d.EncodeKernelCost(raw, enc); e != want {
		t.Fatalf("encode %g, want %g", e, want)
	}
	if dc := d.DecodeKernelCost(enc, raw); dc != want {
		t.Fatalf("decode %g, want encode's %g", dc, want)
	}
	if d.EncodeKernelCost(0, 0) != 0 {
		t.Fatal("empty encode not free")
	}
}

// A straggler factor multiplies every kernel cost exactly, and a factor of
// 1 restores the healthy cost bit for bit.
func TestSetSlowdownScalesEveryCost(t *testing.T) {
	costs := []struct {
		name string
		cost func(*Device) sim.Duration
	}{
		{"gather", func(d *Device) sim.Duration { return d.GatherKernelCost(1<<20, 1<<16, 1000) }},
		{"gather-chunk", func(d *Device) sim.Duration { return d.GatherKernelChunkCost(1<<18, 1<<14, 250, 1000) }},
		{"expand", func(d *Device) sim.Duration { return d.ExpandKernelCost(4000, 1000, 256) }},
		{"remote-issue", func(d *Device) sim.Duration { return d.RemoteIssueCost(4096) }},
		{"unpack", func(d *Device) sim.Duration { return d.UnpackKernelCost(1<<20, 3) }},
		{"encode", func(d *Device) sim.Duration { return d.EncodeKernelCost(1<<20, 1<<18) }},
		{"decode", func(d *Device) sim.Duration { return d.DecodeKernelCost(1<<18, 1<<20) }},
		{"mlp", func(d *Device) sim.Duration { return d.MLPKernelCost(1e9, 1e6) }},
	}
	for _, c := range costs {
		t.Run(c.name, func(t *testing.T) {
			_, d := testDevice()
			if d.Slowdown() != 1 {
				t.Fatalf("fresh device slowdown %g, want 1", d.Slowdown())
			}
			healthy := c.cost(d)
			d.SetSlowdown(2)
			if got := c.cost(d); got != 2*healthy {
				t.Fatalf("slowed cost %g, want %g", got, 2*healthy)
			}
			d.SetSlowdown(1)
			if got := c.cost(d); got != healthy {
				t.Fatalf("restored cost %g, want bit-identical %g", got, healthy)
			}
		})
	}
}

func TestSetSlowdownBelowOnePanics(t *testing.T) {
	_, d := testDevice()
	defer func() {
		if recover() == nil {
			t.Error("SetSlowdown(0.5) did not panic")
		}
	}()
	d.SetSlowdown(0.5)
}

// Stream(name) returns one long-lived queue per name: work launched through
// either handle serialises on the same queue.
func TestStreamByNameReused(t *testing.T) {
	env, d := testDevice()
	a := d.Stream("emb")
	if b := d.Stream("emb"); b != a {
		t.Fatal("second Stream(\"emb\") created a new stream")
	}
	if other := d.Stream("mlp"); other == a {
		t.Fatal("distinct names share a stream")
	}
	if a.Name() != "emb" || a.Device() != d || d.ID() != 0 || d.Env() != env {
		t.Fatal("accessors disagree with construction")
	}
	env.Go("host", func(p *sim.Proc) {
		_, end1 := a.Launch(p, sim.Millisecond)
		_, end2 := d.Stream("emb").Launch(p, sim.Millisecond)
		if end2 < end1+sim.Millisecond {
			t.Errorf("second kernel ends at %g, before first %g + 1 ms", end2, end1)
		}
		if a.BusyUntil() != end2 {
			t.Errorf("BusyUntil %g, want %g", a.BusyUntil(), end2)
		}
	})
	env.Run()
}

// A device prices every kernel as its parameter set does on a healthy device,
// scaled by its slowdown: exactly equal at factor 1, so host-side planning on
// the Params forms sees the same costs a healthy device charges.
func TestDeviceCostsAreParamsCostsTimesSlowdown(t *testing.T) {
	_, d := testDevice()
	p := d.Params()
	for _, slow := range []float64{1, 2.5} {
		d.SetSlowdown(slow)
		s := sim.Duration(slow)
		checks := []struct {
			name         string
			device, pure sim.Duration
		}{
			{"gather", d.GatherKernelCost(3e6, 1e6, 5000), p.GatherKernelCost(3e6, 1e6, 5000)},
			{"gather chunk", d.GatherKernelChunkCost(3e5, 1e5, 500, 5000), p.GatherKernelChunkCost(3e5, 1e5, 500, 5000)},
			{"expand", d.ExpandKernelCost(9000, 700, 256), p.ExpandKernelCost(9000, 700, 256)},
			{"remote issue", d.RemoteIssueCost(4321), p.RemoteIssueCost(4321)},
		}
		for _, c := range checks {
			if c.device != c.pure*s {
				t.Errorf("slowdown %g: device %s cost %v, params %v x slowdown", slow, c.name, c.device, c.pure)
			}
		}
	}
}
