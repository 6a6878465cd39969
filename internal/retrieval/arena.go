package retrieval

// Per-GPU scratch arenas. Every backend's RunBatch used to allocate its
// working buffers (all-to-all segment sizes) per call; over a serving run
// that is thousands of short-lived slices per second of simulated traffic. Each run now owns one gpuScratch per GPU,
// and RunBatch borrows from it instead of calling make.
//
// Safety: the simulator's processes never run concurrently (strict handoff),
// and scratch[g] is only touched by GPU g's process, so no synchronisation is
// needed. Buffers handed to a collective are fully consumed before the call
// returns, and the inter-batch barrier keeps one batch's borrows from
// overlapping the next's.

// gpuScratch is one GPU's reusable per-batch working memory.
type gpuScratch struct {
	sendBytes []float64 // all-to-all segment sizes
	recvBytes []float64
}

// scratchSlice returns (*buf)[:n], reallocating only when capacity is short,
// and stores the result back through buf. Contents are NOT cleared — callers
// that read before writing must zero it themselves.
func scratchSlice[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	s := (*buf)[:n]
	*buf = s
	return s
}
