package sim

import "testing"

func TestProcWaitAdvancesClock(t *testing.T) {
	e := NewEnv()
	var at Time
	e.Go("w", func(p *Proc) {
		p.Wait(2 * Millisecond)
		at = p.Now()
	})
	e.Run()
	if at != 2*Millisecond {
		t.Fatalf("proc resumed at %v, want 2ms", at)
	}
}

func TestProcWaitZero(t *testing.T) {
	e := NewEnv()
	ran := false
	e.Go("z", func(p *Proc) {
		p.Wait(0)
		ran = true
	})
	e.Run()
	if !ran {
		t.Fatal("proc with zero wait never completed")
	}
}

func TestProcNegativeWaitPanics(t *testing.T) {
	e := NewEnv()
	panicked := false
	e.Go("n", func(p *Proc) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		p.Wait(-1)
	})
	e.Run()
	if !panicked {
		t.Error("negative Wait did not panic")
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEnv()
		var log []string
		e.Go("a", func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Wait(2)
				log = append(log, "a")
			}
		})
		e.Go("b", func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Wait(3)
				log = append(log, "b")
			}
		})
		e.Run()
		return log
	}
	first := run()
	// Times: a at 2,4,6 and b at 3,6,9. At the t=6 tie, b's wake-up was
	// scheduled at t=3 and a's at t=4, so FIFO insertion order puts b first.
	want := []string{"a", "b", "a", "b", "a", "b"}
	if len(first) != len(want) {
		t.Fatalf("log = %v, want %v", first, want)
	}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("log = %v, want %v", first, want)
		}
	}
	for trial := 0; trial < 20; trial++ {
		got := run()
		for i := range want {
			if got[i] != first[i] {
				t.Fatalf("nondeterministic interleaving on trial %d: %v vs %v", trial, got, first)
			}
		}
	}
}

func TestWaitUntilPastReturnsImmediately(t *testing.T) {
	e := NewEnv()
	var at Time
	e.Go("p", func(p *Proc) {
		p.Wait(5)
		p.WaitUntil(1) // already past
		at = p.Now()
	})
	e.Run()
	if at != 5 {
		t.Fatalf("resumed at %v, want 5", at)
	}
}

func TestSignalReleasesAllWaiters(t *testing.T) {
	e := NewEnv()
	s := NewSignal(e)
	released := 0
	for i := 0; i < 5; i++ {
		e.Go("w", func(p *Proc) {
			p.WaitSignal(s)
			released++
		})
	}
	e.Go("firer", func(p *Proc) {
		p.Wait(1)
		s.Fire()
	})
	e.Run()
	if released != 5 {
		t.Fatalf("released = %d, want 5", released)
	}
	if !s.Fired() || s.FiredAt() != 1 {
		t.Fatalf("signal fired=%v at=%v, want true at 1", s.Fired(), s.FiredAt())
	}
}

func TestWaitOnFiredSignalReturnsImmediately(t *testing.T) {
	e := NewEnv()
	s := NewSignal(e)
	var at Time
	e.Go("firer", func(p *Proc) { s.Fire() })
	e.Go("late", func(p *Proc) {
		p.Wait(3)
		p.WaitSignal(s)
		at = p.Now()
	})
	e.Run()
	if at != 3 {
		t.Fatalf("late waiter resumed at %v, want 3", at)
	}
}

func TestSignalDoubleFirePanics(t *testing.T) {
	e := NewEnv()
	s := NewSignal(e)
	s.Fire()
	defer func() {
		if recover() == nil {
			t.Error("double Fire did not panic")
		}
	}()
	s.Fire()
}

func TestFiredAtOnUnfiredPanics(t *testing.T) {
	e := NewEnv()
	s := NewSignal(e)
	defer func() {
		if recover() == nil {
			t.Error("FiredAt on unfired signal did not panic")
		}
	}()
	s.FiredAt()
}

func TestOnFireCallback(t *testing.T) {
	e := NewEnv()
	s := NewSignal(e)
	var at Time = -1
	s.OnFire(func() { at = e.Now() })
	e.Go("f", func(p *Proc) {
		p.Wait(4)
		s.Fire()
	})
	e.Run()
	if at != 4 {
		t.Fatalf("OnFire ran at %v, want 4", at)
	}
	// Registering after fire schedules immediately.
	ran := false
	s.OnFire(func() { ran = true })
	e.Run()
	if !ran {
		t.Fatal("OnFire after fire never ran")
	}
}

func TestBarrierSynchronises(t *testing.T) {
	e := NewEnv()
	b := NewBarrier(e, 3)
	var times []Time
	delays := []Duration{1, 5, 3}
	for _, d := range delays {
		d := d
		e.Go("p", func(p *Proc) {
			p.Wait(d)
			b.Await(p)
			times = append(times, p.Now())
		})
	}
	e.Run()
	if len(times) != 3 {
		t.Fatalf("len(times) = %d, want 3", len(times))
	}
	for _, at := range times {
		if at != 5 {
			t.Fatalf("barrier released at %v, want 5 (times=%v)", at, times)
		}
	}
}

func TestBarrierReusable(t *testing.T) {
	e := NewEnv()
	b := NewBarrier(e, 2)
	var releases []Time
	for i := 0; i < 2; i++ {
		i := i
		e.Go("p", func(p *Proc) {
			for round := 0; round < 3; round++ {
				p.Wait(Duration(1 + i)) // parties drift apart
				b.Await(p)
				if i == 0 {
					releases = append(releases, p.Now())
				}
			}
		})
	}
	e.Run()
	if len(releases) != 3 {
		t.Fatalf("rounds completed = %d, want 3", len(releases))
	}
	// Barrier release times follow the slower party: 2, 4, 6.
	want := []Time{2, 4, 6}
	for i := range want {
		if releases[i] != want[i] {
			t.Fatalf("releases = %v, want %v", releases, want)
		}
	}
}

func TestBarrierInvalidParties(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewBarrier(0) did not panic")
		}
	}()
	NewBarrier(NewEnv(), 0)
}

// TestBarrierSteadyStateZeroAllocs pins the recycling contract every batch's
// rendezvous relies on: after warm-up, a barrier cycle must not allocate.
func TestBarrierSteadyStateZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed test")
	}
	r := testing.Benchmark(func(b *testing.B) {
		e := NewEnv()
		bar := NewBarrier(e, 3)
		rounds := b.N + 2 // warm-up rounds before the timer resets
		for g := 0; g < 3; g++ {
			g := g
			e.Go("p", func(p *Proc) {
				for r := 0; r < rounds; r++ {
					p.Wait(Duration(g + 1))
					bar.Await(p)
				}
			})
		}
		for e.Pending() > 0 && e.EventsFired() < 64 {
			e.Step()
		}
		b.ReportAllocs()
		b.ResetTimer()
		e.Run()
	})
	if a := r.AllocsPerOp(); a != 0 {
		t.Errorf("barrier cycle allocates %d times per round (want 0)", a)
	}
}
