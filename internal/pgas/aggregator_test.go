package pgas

import (
	"testing"

	"pgasemb/internal/sim"
)

func TestAggregatorBuffersUntilThreshold(t *testing.T) {
	_, rt := testRuntime(2)
	a := NewAggregator(rt.PE(0), 1024, sim.Second) // long maxWait: size-triggered only
	for i := 0; i < 3; i++ {
		a.StoreBytes(rt.PE(1), 256)
	}
	if a.Flushes() != 0 {
		t.Fatalf("flushed early: %d", a.Flushes())
	}
	if a.PendingBytes() != 768 {
		t.Fatalf("pending = %d", a.PendingBytes())
	}
	a.StoreBytes(rt.PE(1), 256) // 1024 B -> flush
	if a.Flushes() != 1 {
		t.Fatalf("flushes = %d, want 1", a.Flushes())
	}
	if a.PendingBytes() != 0 {
		t.Fatalf("pending after flush = %d", a.PendingBytes())
	}
}

func TestAggregatorSingleHeaderPerFlush(t *testing.T) {
	_, rt := testRuntime(2)
	pe := rt.PE(0)
	a := NewAggregator(pe, 1024, sim.Second)
	for i := 0; i < 4; i++ {
		a.StoreBytes(rt.PE(1), 256)
	}
	// 1024 B payload + one 32 B header, versus 4 x (256+32) unaggregated.
	if pe.WireBytes() != 1024+32 {
		t.Fatalf("wire bytes = %v, want 1056", pe.WireBytes())
	}
	if pe.Puts() != 1 {
		t.Fatalf("puts = %d, want 1 aggregated message", pe.Puts())
	}
}

func TestAggregatorMaxWaitFlush(t *testing.T) {
	env, rt := testRuntime(2)
	a := NewAggregator(rt.PE(0), 1<<20, 5*sim.Millisecond)
	env.Go("worker", func(p *sim.Proc) {
		a.StoreBytes(rt.PE(1), 256)
		p.Wait(20 * sim.Millisecond)
	})
	env.Run()
	if a.Flushes() != 1 {
		t.Fatalf("maxWait flush did not happen: flushes=%d", a.Flushes())
	}
	if a.PendingBytes() != 0 {
		t.Fatalf("pending after timer flush = %d", a.PendingBytes())
	}
}

func TestAggregatorTimerDoesNotDoubleFlush(t *testing.T) {
	env, rt := testRuntime(2)
	a := NewAggregator(rt.PE(0), 512, 5*sim.Millisecond)
	env.Go("worker", func(p *sim.Proc) {
		a.StoreBytes(rt.PE(1), 256)
		a.StoreBytes(rt.PE(1), 256) // 512 B -> size flush at t=0
		p.Wait(20 * sim.Millisecond)
	})
	env.Run()
	if a.Flushes() != 1 {
		t.Fatalf("stale timer refired: flushes=%d", a.Flushes())
	}
}

func TestAggregatorLocalStoresBypass(t *testing.T) {
	_, rt := testRuntime(2)
	pe := rt.PE(0)
	a := NewAggregator(pe, 256, sim.Second)
	a.StoreBytes(pe, 256)
	if a.PendingBytes() != 0 || a.Flushes() != 0 || pe.Puts() != 0 {
		t.Fatal("local store went through the aggregator")
	}
}

func TestAggregatorFlushAll(t *testing.T) {
	_, rt := testRuntime(3)
	pe := rt.PE(0)
	a := NewAggregator(pe, 1<<20, sim.Second)
	a.StoreBytes(rt.PE(1), 256)
	a.StoreBytes(rt.PE(2), 256)
	a.FlushAll()
	if a.PendingBytes() != 0 {
		t.Fatalf("pending after FlushAll = %d", a.PendingBytes())
	}
	if a.Flushes() != 2 {
		t.Fatalf("flushes = %d, want one per destination", a.Flushes())
	}
	// FlushAll on empty buckets is a no-op.
	a.FlushAll()
	if a.Flushes() != 2 {
		t.Fatal("empty FlushAll sent messages")
	}
}

func TestAggregatorFewerMessagesSameBytes(t *testing.T) {
	// The aggregator's entire purpose: same payload, fewer headers.
	_, rt := testRuntime(2)
	direct := rt.PE(0)
	for i := 0; i < 100; i++ {
		direct.PutBytes(rt.PE(1), 256)
	}
	directWire := direct.WireBytes()

	_, rt2 := testRuntime(2)
	agg := NewAggregator(rt2.PE(0), 8192, sim.Second)
	for i := 0; i < 100; i++ {
		agg.StoreBytes(rt2.PE(1), 256)
	}
	agg.FlushAll()
	aggWire := rt2.PE(0).WireBytes()

	if rt2.PE(0).PayloadBytes() != direct.PayloadBytes() {
		t.Fatal("payload differs between direct and aggregated paths")
	}
	if aggWire >= directWire {
		t.Fatalf("aggregation did not reduce wire bytes: %v vs %v", aggWire, directWire)
	}
}

func TestAggregatorValidation(t *testing.T) {
	_, rt := testRuntime(2)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("flushBytes=0 did not panic")
			}
		}()
		NewAggregator(rt.PE(0), 0, sim.Second)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative maxWait did not panic")
			}
		}()
		NewAggregator(rt.PE(0), 1, -1)
	}()
	a := NewAggregator(rt.PE(0), 1024, sim.Second)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative payload did not panic")
			}
		}()
		a.StoreBytes(rt.PE(1), -1)
	}()
}
