package sim

import "fmt"

// Proc is a coroutine-style simulated process. A Proc runs on its own
// goroutine but never concurrently with the scheduler or another Proc: every
// blocking call (Wait, WaitSignal, ...) performs a strict handoff back to the
// event loop, which keeps the simulation deterministic.
type Proc struct {
	env    *Env
	name   string
	resume chan struct{} // scheduler -> proc
	parked chan struct{} // proc -> scheduler
	done   bool
	wakeFn func() // cached wake closure, so blocking calls don't allocate
}

// Name returns the process name given to Env.Go.
func (p *Proc) Name() string { return p.name }

// Go starts fn as a simulated process at the current time.
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{
		env:    e,
		name:   name,
		resume: make(chan struct{}),
		parked: make(chan struct{}),
	}
	p.wakeFn = p.wake
	e.After(0, func() {
		go func() {
			defer func() {
				p.done = true
				p.parked <- struct{}{}
			}()
			fn(p)
		}()
		<-p.parked // run the proc until it blocks or finishes
	})
	return p
}

// park yields control to the scheduler and blocks until resumed.
func (p *Proc) park() {
	p.parked <- struct{}{}
	<-p.resume
}

// wake resumes the process from the scheduler side and waits for it to park
// again (or finish). Must only be called from inside an event.
func (p *Proc) wake() {
	p.resume <- struct{}{}
	<-p.parked
}

// Env returns the environment this process runs in.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.env.now }

// Wait suspends the process for d simulated seconds.
func (p *Proc) Wait(d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: proc %q waits negative duration %g", p.name, d))
	}
	p.env.After(d, p.wakeFn)
	p.park()
}

// WaitUntil suspends the process until the absolute simulated time at. If at
// is in the past it returns immediately.
func (p *Proc) WaitUntil(at Time) {
	if at <= p.env.now {
		return
	}
	p.Wait(at - p.env.now)
}

// WaitSignal suspends the process until s fires. If s has already fired it
// returns immediately.
func (p *Proc) WaitSignal(s *Signal) {
	if s.Fired() {
		return
	}
	s.subscribe(p)
	p.park()
}

// Signal is a one-shot broadcast condition. Fire releases all current and
// future waiters. The zero value is not usable; construct with NewSignal.
type Signal struct {
	env     *Env
	fired   bool
	firedAt Time
	waiters []*Proc
	cbs     []func()
}

// NewSignal returns an unfired signal bound to e.
func NewSignal(e *Env) *Signal {
	return &Signal{env: e}
}

// Fired reports whether the signal has fired.
func (s *Signal) Fired() bool { return s.fired }

// FiredAt returns the time the signal fired. It panics if the signal has not
// fired, since the value would be meaningless.
func (s *Signal) FiredAt() Time {
	if !s.fired {
		panic("sim: FiredAt on unfired signal")
	}
	return s.firedAt
}

// Fire releases all waiters. Firing twice panics: a one-shot signal being
// fired again indicates broken model logic.
func (s *Signal) Fire() {
	if s.fired {
		panic("sim: signal fired twice")
	}
	s.fired = true
	s.firedAt = s.env.now
	for _, w := range s.waiters {
		s.env.After(0, w.wakeFn)
	}
	s.waiters = nil
	for _, cb := range s.cbs {
		cb := cb
		s.env.After(0, cb)
	}
	s.cbs = nil
}

// OnFire registers fn to run (as an event) when the signal fires. If the
// signal already fired, fn is scheduled immediately.
func (s *Signal) OnFire(fn func()) {
	if s.fired {
		s.env.After(0, fn)
		return
	}
	s.cbs = append(s.cbs, fn)
}

func (s *Signal) subscribe(p *Proc) {
	s.waiters = append(s.waiters, p)
}

// Barrier is a reusable synchronisation point for a fixed number of parties.
type Barrier struct {
	env     *Env
	parties int
	waiters []*Proc // parked parties of the current generation (array reused)
}

// NewBarrier returns a barrier for the given number of parties.
func NewBarrier(e *Env, parties int) *Barrier {
	if parties <= 0 {
		panic("sim: barrier needs at least one party")
	}
	return &Barrier{env: e, parties: parties}
}

// Await blocks the process until all parties have arrived, then releases the
// generation and resets the barrier for reuse. The waiter list's backing
// array is recycled across generations, so a steady-state barrier cycle
// allocates nothing.
func (b *Barrier) Await(p *Proc) {
	if len(b.waiters)+1 == b.parties {
		for _, w := range b.waiters {
			b.env.After(0, w.wakeFn)
		}
		b.waiters = b.waiters[:0]
		return
	}
	b.waiters = append(b.waiters, p)
	p.park()
}
