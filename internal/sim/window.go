package sim

// Window is a sliding-window rendezvous for a fixed number of parties working
// through an ordered sequence of rounds (0, 1, 2, ...) with bounded skew. It
// generalises Barrier: with depth 1 no party may enter round r until every
// party has retired round r-1 (classic lockstep), while with depth d a party
// may run up to d-1 rounds ahead of the slowest party. It is the
// synchronisation primitive behind inter-batch software pipelining, where
// round r's resources live in slot r%depth and must not be reused until every
// party has retired round r-depth.
//
// Protocol: each party calls Enter(p, r) before starting round r and
// Retire(party) after finishing it, for strictly increasing r. Like Barrier,
// the waiter list's backing array is recycled, so a steady-state cycle
// allocates nothing.
type Window struct {
	env     *Env
	parties int
	depth   int
	retired []int // rounds retired so far, per party
	min     int   // cached min over retired
	waiters []windowWaiter
}

type windowWaiter struct {
	p    *Proc
	need int // minimum retired-count required before release
}

// NewWindow returns a window rendezvous for the given number of parties and
// pipeline depth. Depth 1 reproduces Barrier's lockstep semantics.
func NewWindow(e *Env, parties, depth int) *Window {
	if parties <= 0 {
		panic("sim: window needs at least one party")
	}
	if depth <= 0 {
		panic("sim: window needs depth >= 1")
	}
	// At most every party but one waits at a time, so the waiter list never
	// grows past its first allocation.
	return &Window{env: e, parties: parties, depth: depth, retired: make([]int, parties),
		waiters: make([]windowWaiter, 0, parties)}
}

// Depth returns the window's pipeline depth.
func (w *Window) Depth() int { return w.depth }

// Enter blocks p until round may begin: every party must have retired all
// rounds up to and including round-depth. Rounds closer than that are still
// in flight in other slots, which is exactly the overlap the window permits.
func (w *Window) Enter(p *Proc, round int) {
	need := round - w.depth + 1
	if w.min >= need {
		return
	}
	w.waiters = append(w.waiters, windowWaiter{p: p, need: need})
	p.park()
}

// Retire records that party finished its current round and releases any
// waiters whose entry condition is now met. Must be called in round order by
// each party (the count is the contract — retiring round r means rounds
// 0..r are all done for that party).
func (w *Window) Retire(party int) {
	w.retired[party]++
	m := w.retired[0]
	for _, r := range w.retired[1:] {
		if r < m {
			m = r
		}
	}
	if m == w.min {
		return
	}
	w.min = m
	kept := w.waiters[:0]
	for _, ww := range w.waiters {
		if ww.need <= m {
			w.env.After(0, ww.p.wakeFn)
		} else {
			kept = append(kept, ww)
		}
	}
	for i := len(kept); i < len(w.waiters); i++ {
		w.waiters[i] = windowWaiter{} // drop proc refs in the recycled tail
	}
	w.waiters = kept
}
