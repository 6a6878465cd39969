package sim

import (
	"container/heap"
	"context"
	"fmt"
	"math"
)

// Time is a point on the simulated clock, in seconds since simulation start.
type Time = float64

// Duration is a span of simulated time, in seconds.
type Duration = float64

// Convenient duration units.
const (
	Nanosecond  Duration = 1e-9
	Microsecond Duration = 1e-6
	Millisecond Duration = 1e-3
	Second      Duration = 1
)

// FormatTime renders a simulated time compactly for logs and charts.
func FormatTime(t Time) string {
	switch {
	case t == 0:
		return "0s"
	case math.Abs(t) < 1e-6:
		return fmt.Sprintf("%.1fns", t*1e9)
	case math.Abs(t) < 1e-3:
		return fmt.Sprintf("%.2fus", t*1e6)
	case math.Abs(t) < 1:
		return fmt.Sprintf("%.3fms", t*1e3)
	default:
		return fmt.Sprintf("%.4fs", t)
	}
}

type event struct {
	at  Time
	seq int64 // tie-break: FIFO among same-time events
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Env is a discrete-event simulation environment. The zero value is not
// usable; construct with NewEnv.
type Env struct {
	now    Time
	queue  eventHeap
	seq    int64
	nfired int64
	free   []*event // recycled event nodes: scheduling is allocation-free at steady state
}

// NewEnv returns an environment with the clock at zero and an empty queue.
func NewEnv() *Env {
	return &Env{}
}

// Now returns the current simulated time.
func (e *Env) Now() Time { return e.now }

// EventsFired reports how many events have executed so far (useful for
// bounding runaway models in tests).
func (e *Env) EventsFired() int64 { return e.nfired }

// Schedule runs fn at absolute time at. Scheduling in the past panics: that
// is always a model bug, and silently clamping would hide it.
func (e *Env) Schedule(at Time, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %s before now %s", FormatTime(at), FormatTime(e.now)))
	}
	e.seq++
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free = e.free[:n-1]
		ev.at, ev.seq, ev.fn = at, e.seq, fn
	} else {
		ev = &event{at: at, seq: e.seq, fn: fn}
	}
	heap.Push(&e.queue, ev)
}

// After runs fn d seconds from now. Negative d panics.
func (e *Env) After(d Duration, fn func()) {
	e.Schedule(e.now+d, fn)
}

// Step executes the next pending event, advancing the clock to its
// timestamp. It reports whether an event was available.
func (e *Env) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*event)
	e.now = ev.at
	e.nfired++
	fn := ev.fn
	ev.fn = nil // release the closure; recycle the node before running it
	e.free = append(e.free, ev)
	fn()
	return true
}

// Run drains the event queue. It returns the final clock value.
func (e *Env) Run() Time {
	for e.Step() {
	}
	return e.now
}

// ctxCheckInterval is how many events RunContext executes between
// cancellation checks — large enough that the check is free relative to
// event dispatch, small enough that cancellation lands promptly.
const ctxCheckInterval = 1024

// RunContext drains the event queue like Run, but polls ctx every
// ctxCheckInterval events and stops with ctx.Err() on cancellation or
// deadline. An abandoned environment may leave parked processes behind;
// callers must discard it rather than resume it.
func (e *Env) RunContext(ctx context.Context) (Time, error) {
	if ctx.Done() == nil { // not cancellable: identical to Run, zero overhead
		return e.Run(), nil
	}
	for {
		for i := 0; i < ctxCheckInterval; i++ {
			if !e.Step() {
				return e.now, nil
			}
		}
		if err := ctx.Err(); err != nil {
			return e.now, err
		}
	}
}

// Pending reports the number of queued events.
func (e *Env) Pending() int { return len(e.queue) }
