package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPipeSingleTransfer(t *testing.T) {
	e := NewEnv()
	p := NewPipe(e, "link", 100, 0.5) // 100 B/s, 0.5s latency
	end := p.Offer(200)
	if end != 2.5 {
		t.Fatalf("end = %v, want 2.5 (0.5 latency + 200/100)", end)
	}
}

func TestPipeFIFOQueueing(t *testing.T) {
	e := NewEnv()
	p := NewPipe(e, "link", 100, 0)
	first := p.Offer(100)  // drains [0,1]
	second := p.Offer(100) // drains [1,2]
	if first != 1 || second != 2 {
		t.Fatalf("ends = %v, %v; want 1, 2", first, second)
	}
	if p.BusyUntil() != 2 {
		t.Fatalf("BusyUntil = %v, want 2", p.BusyUntil())
	}
}

func TestPipeIdleGapResetsStart(t *testing.T) {
	e := NewEnv()
	p := NewPipe(e, "link", 100, 0)
	p.Offer(100) // done at 1
	e.Schedule(5, func() {
		end := p.Offer(100)
		if end != 6 {
			t.Errorf("end = %v, want 6 (starts at now=5)", end)
		}
	})
	e.Run()
}

func TestPipeOfferAtRespectsReadyTime(t *testing.T) {
	e := NewEnv()
	p := NewPipe(e, "link", 100, 0)
	end := p.OfferAt(10, 100)
	if end != 11 {
		t.Fatalf("end = %v, want 11", end)
	}
	// Queued behind the future transfer even though the pipe is idle now.
	end2 := p.OfferAt(0, 100)
	if end2 != 12 {
		t.Fatalf("end2 = %v, want 12", end2)
	}
}

func TestPipeZeroBytes(t *testing.T) {
	e := NewEnv()
	p := NewPipe(e, "link", 100, 0.25)
	if end := p.Offer(0); end != 0.25 {
		t.Fatalf("zero-byte end = %v, want latency 0.25", end)
	}
}

func TestPipeNegativeBytesPanics(t *testing.T) {
	e := NewEnv()
	p := NewPipe(e, "link", 100, 0)
	defer func() {
		if recover() == nil {
			t.Error("negative bytes did not panic")
		}
	}()
	p.Offer(-1)
}

func TestPipeInvalidConstruction(t *testing.T) {
	e := NewEnv()
	for _, c := range []struct{ bw, lat float64 }{{0, 0}, {-5, 0}, {10, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPipe(bw=%v, lat=%v) did not panic", c.bw, c.lat)
				}
			}()
			NewPipe(e, "bad", c.bw, c.lat)
		}()
	}
}

func TestPipeAccounting(t *testing.T) {
	e := NewEnv()
	p := NewPipe(e, "link", 1000, 0)
	p.Offer(10)
	p.Offer(30)
	p.Offer(0)
	if p.TotalBytes() != 40 {
		t.Fatalf("TotalBytes = %v, want 40", p.TotalBytes())
	}
	if p.Transfers() != 3 {
		t.Fatalf("Transfers = %v, want 3", p.Transfers())
	}
}

// A degraded pipe drains at factor x its bandwidth from the next transfer
// on, and a factor of 1 restores the healthy rate bit for bit.
func TestPipeSetDegradeScalesBandwidth(t *testing.T) {
	e := NewEnv()
	p := NewPipe(e, "link", 100, 0)
	p.SetDegrade(0.5)
	if end := p.Offer(100); end != 2 {
		t.Fatalf("degraded end = %v, want 2 (100 B at 50 B/s)", end)
	}
	p.SetDegrade(1)
	if end := p.Offer(100); end != 3 {
		t.Fatalf("restored end = %v, want 3 (queued behind 2, then 100 B at 100 B/s)", end)
	}
	healthy := NewPipe(NewEnv(), "link", 3e9, 1e-6)
	restored := NewPipe(NewEnv(), "link", 3e9, 1e-6)
	restored.SetDegrade(1)
	for _, b := range []float64{1, 7, 4096, 1 << 20} {
		if h, r := healthy.Offer(b), restored.Offer(b); h != r {
			t.Fatalf("factor 1 changed delivery of %v B: %v vs %v", b, r, h)
		}
	}
}

func TestPipeSetDegradeNonPositivePanics(t *testing.T) {
	p := NewPipe(NewEnv(), "link", 100, 0)
	for _, factor := range []float64{0, -0.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetDegrade(%v) did not panic", factor)
				}
			}()
			p.SetDegrade(factor)
		}()
	}
}

// Property: for any sequence of non-negative transfers offered at once,
// deliveries come back in FIFO order, the pipe drains exactly the total
// offered at its bandwidth, and no transfer lands before the bytes queued
// ahead of it (its own included) could cross the wire.
func TestPipeConservationProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		e := NewEnv()
		p := NewPipe(e, "link", 50, 0.001)
		var total float64
		prev := Time(0)
		for _, s := range sizes {
			b := float64(s % 1000)
			total += b
			at := p.Offer(b)
			if at < prev || at+1e-9 < total/50+0.001 {
				return false
			}
			prev = at
		}
		return math.Abs(p.BusyUntil()-total/50) <= 1e-9 && p.TotalBytes() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
