package pgas

import (
	"testing"

	"pgasemb/internal/sim"
)

// The double-buffered symmetric heap: ConfigureSlots slices each PE's
// staging region into pipeline slots, SetSlot tags subsequent stores, and
// QuietSlot waits only for the tagged slot's store horizon — the property
// that lets a pipelined schedule quiesce slot k while slot k+1's stores are
// still in flight.

func TestQuietSlotWaitsOnlyForItsSlot(t *testing.T) {
	env, rt := testRuntime(2)
	rt.ConfigureSlots(2)
	pe, dst := rt.PE(0), rt.PE(1)
	if pe.Slots() != 2 {
		t.Fatalf("Slots() = %d, want 2", pe.Slots())
	}
	env.Go("pe0", func(p *sim.Proc) {
		pe.SetSlot(0)
		t0 := pe.PutVectors(dst, 4, 256)
		pe.SetSlot(1)
		t1 := pe.PutVectors(dst, 64, 256)
		if t1 <= t0 {
			t.Errorf("second put delivered at %v, want after %v (shared wire)", t1, t0)
		}
		// Slot 0's horizon is t0; the wire is busy until t1, but QuietSlot
		// must not wait for slot 1's store.
		pe.QuietSlot(p, 0)
		if p.Now() != t0 {
			t.Errorf("QuietSlot(0) returned at %v, want slot-0 horizon %v (full horizon is %v)",
				p.Now(), t0, t1)
		}
		// A retired slot costs nothing to quiesce again.
		before := p.Now()
		pe.QuietSlot(p, 0)
		if p.Now() != before {
			t.Errorf("re-quiescing a retired slot advanced time to %v", p.Now())
		}
		pe.QuietSlot(p, 1)
		if p.Now() != t1 {
			t.Errorf("QuietSlot(1) returned at %v, want %v", p.Now(), t1)
		}
	})
	env.Run()
}

func TestQuietSlotMatchesQuietOnUnslicedHeap(t *testing.T) {
	// No ConfigureSlots: any slot argument degrades to a full Quiet. Run the
	// same scenario through both entry points and demand identical times.
	runOne := func(slotVariant bool) sim.Time {
		env, rt := testRuntime(2)
		pe, dst := rt.PE(0), rt.PE(1)
		var at sim.Time
		env.Go("pe0", func(p *sim.Proc) {
			pe.PutVectors(dst, 16, 256)
			if slotVariant {
				pe.QuietSlot(p, 7)
			} else {
				pe.Quiet(p)
			}
			at = p.Now()
		})
		env.Run()
		return at
	}
	slot, quiet := runOne(true), runOne(false)
	if quiet == 0 {
		t.Fatal("Quiet after a remote put did not advance time")
	}
	if slot != quiet {
		t.Errorf("unsliced QuietSlot returned at %v, Quiet at %v — must be identical", slot, quiet)
	}
}

func TestSetSlotIsNoOpOnUnslicedHeap(t *testing.T) {
	_, rt := testRuntime(2)
	rt.PE(0).SetSlot(3) // must not panic: 1-deep pipelines never slice the heap
	if got := rt.PE(0).Slots(); got != 1 {
		t.Fatalf("Slots() = %d, want 1", got)
	}
}

func TestSetSlotPanicsOutOfRange(t *testing.T) {
	_, rt := testRuntime(2)
	rt.ConfigureSlots(2)
	defer func() {
		if recover() == nil {
			t.Error("SetSlot(2) on a 2-slot heap did not panic")
		}
	}()
	rt.PE(0).SetSlot(2)
}

func TestConfigureSlotsPanicsBelowTwo(t *testing.T) {
	_, rt := testRuntime(2)
	defer func() {
		if recover() == nil {
			t.Error("ConfigureSlots(1) did not panic")
		}
	}()
	rt.ConfigureSlots(1)
}
