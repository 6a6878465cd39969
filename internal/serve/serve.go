// Package serve is the online inference serving layer: an open-loop request
// generator (Poisson or bursty arrivals on the simulated clock), a bounded
// admission queue, and a dynamic batcher that coalesces pending requests
// into device batches under a max-latency/max-batch policy and dispatches
// them through the DLRM pipeline on either retrieval backend. The per-GPU
// hot-row embedding cache (internal/cache) stays attached — and warm —
// across dispatches, so a skewed request stream builds up cache residency
// exactly as a production parameter server would.
//
// Two clocks are involved: the MACRO simulation carries arrivals, queueing
// and batching; each dispatched batch then runs the existing micro-level
// pipeline simulation to obtain its service time, which the macro clock
// advances by. Requests complete when their batch's pipeline run does;
// latency = completion − arrival.
package serve

import (
	"context"
	"fmt"

	"pgasemb/internal/cache"
	"pgasemb/internal/dlrm"
	"pgasemb/internal/metrics"
	"pgasemb/internal/placement"
	"pgasemb/internal/retrieval"
	"pgasemb/internal/sim"
)

// Config tunes the serving layer around a base retrieval configuration.
type Config struct {
	// Arrival selects Poisson (default) or Bursty arrivals.
	Arrival Arrival
	// Rate is the mean request arrival rate in requests/second. Required.
	Rate float64
	// BurstFactor scales the on-window rate of Bursty arrivals (default 4).
	BurstFactor float64
	// BurstCycle is the Bursty on/off period (default 100ms).
	BurstCycle sim.Duration
	// Duration is the arrival-generation window; requests stop arriving
	// after it and the queue drains. Required.
	Duration sim.Duration
	// MaxBatch caps how many requests one dispatch coalesces (default: the
	// base configuration's BatchSize, which is also the largest device
	// batch shape).
	MaxBatch int
	// MaxWait bounds how long the oldest queued request may wait before a
	// partial batch dispatches anyway (default 5ms) — the latency half of
	// the dynamic batching policy.
	MaxWait sim.Duration
	// QueueCap bounds the admission queue; arrivals beyond it are dropped
	// (default 4 × MaxBatch).
	QueueCap int
	// Seed drives the arrival process (default: the base configuration's
	// Seed). Dispatched batches draw their workload from per-dispatch
	// seeds derived from the base seed.
	Seed uint64
	// Degrade is the degraded-serving policy, consulted only while the
	// hardware's fault schedule has an active event. The zero value serves
	// every admitted request normally regardless of machine health.
	Degrade DegradePolicy
}

// DegradePolicy decides what the serving layer sacrifices while the machine
// is unhealthy (a fault-schedule event is active at the current dispatch
// index): availability for new arrivals, latency for stale queue heads, or
// freshness for cache stability. Each knob is independent; the zero value
// disables all three.
type DegradePolicy struct {
	// QueueTimeout rejects queued requests older than this at dispatch time
	// (0 disables): during an outage it fails the stale heads fast instead
	// of serving hopelessly late responses, bounding the tail the survivors
	// see.
	QueueTimeout sim.Duration
	// ShedAt sheds incoming arrivals while the machine is degraded and the
	// queue has already grown past ShedAt × QueueCap (0 disables; 0.5 is a
	// typical setting). Shedding at the door keeps the queue short enough
	// that admitted requests still meet their latency targets.
	ShedAt float64
	// StaleCacheServe freezes the hot-row caches for the span of degraded
	// dispatches: residency stops churning, so hits keep serving the
	// (possibly stale) pre-fault working set instead of thrashing while the
	// fabric is slow.
	StaleCacheServe bool
}

// withDefaults resolves the zero-value knobs against the base configuration.
func (c Config) withDefaults(base retrieval.Config) Config {
	if c.BurstFactor <= 0 {
		c.BurstFactor = 4
	}
	if c.BurstCycle <= 0 {
		c.BurstCycle = 100 * sim.Millisecond
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = base.BatchSize
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 5 * sim.Millisecond
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 4 * c.MaxBatch
	}
	if c.Seed == 0 {
		c.Seed = base.Seed
	}
	return c
}

// Server owns the immutable pieces of a serving run: the bucketed system
// specs (one per device batch shape), the shared model, and the persistent
// hot-row cache set.
type Server struct {
	base    retrieval.Config
	hw      retrieval.HardwareParams
	backend retrieval.Backend
	cfg     Config
	shapes  []int // ascending device batch shapes (halving buckets)
	specs   map[int]*retrieval.SystemSpec
	model   *dlrm.Model
	caches  *cache.Set
	// placeCtl is the session-shared adaptive-placement controller (nil
	// unless the base configuration enables AdaptivePlacement): one
	// controller per serving session, attached to every dispatched run, so
	// access statistics and placement decisions survive dispatch boundaries
	// — the rebalance cadence is counted in DISPATCHES here, not batches.
	placeCtl *placement.Controller
}

// NewServer validates and wires a serving setup. The base configuration's
// BatchSize is the largest device batch; dispatches smaller than it run on
// halving bucket shapes (BatchSize, BatchSize/2, ... down to the GPU count)
// so short queues are not padded to the full batch.
func NewServer(base retrieval.Config, hw retrieval.HardwareParams, backend retrieval.Backend, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults(base)
	switch {
	case cfg.Rate <= 0:
		return nil, fmt.Errorf("serve: Rate must be positive")
	case cfg.Duration <= 0:
		return nil, fmt.Errorf("serve: Duration must be positive")
	case cfg.MaxBatch > base.BatchSize:
		return nil, fmt.Errorf("serve: MaxBatch %d exceeds the base batch size %d", cfg.MaxBatch, base.BatchSize)
	case cfg.MaxWait <= 0:
		return nil, fmt.Errorf("serve: MaxWait must be positive")
	}
	base.Batches = 1 // each dispatch is one batch

	srv := &Server{base: base, hw: hw, backend: backend, cfg: cfg}
	for shape := base.BatchSize; shape >= base.GPUs; shape /= 2 {
		srv.shapes = append([]int{shape}, srv.shapes...)
	}
	// The bucket specs derive from the largest so they share one Zipf rank
	// table, built lazily by the first dispatch.
	top, err := retrieval.NewSystemSpec(base, hw)
	if err != nil {
		return nil, err
	}
	srv.specs = make(map[int]*retrieval.SystemSpec, len(srv.shapes))
	for _, shape := range srv.shapes {
		spec := top
		if shape != base.BatchSize {
			if spec, err = top.WithBatchSize(shape); err != nil {
				return nil, err
			}
		}
		srv.specs[shape] = spec
	}
	model, err := dlrm.NewModel(dlrm.DefaultModelConfig(base.TotalTables, base.Dim), base.Seed)
	if err != nil {
		return nil, err
	}
	srv.model = model
	if slots := base.CacheSlots(hw.GPU); slots > 0 && base.GPUs > 1 {
		srv.caches = cache.NewSet(base.GPUs, slots, base.Dim, base.RowCounts(), base.Functional)
	}
	if base.AdaptivePlacement {
		// Build the controller off the largest shape's spec: table sizes are
		// shape-independent and its capacity bound (largest activation
		// buffers) is the most conservative across the buckets.
		ctl, err := srv.specs[base.BatchSize].NewPlacementController()
		if err != nil {
			return nil, err
		}
		srv.placeCtl = ctl
	}
	return srv, nil
}

// Shapes returns the ascending device batch shapes the batcher buckets into.
func (s *Server) Shapes() []int { return s.shapes }

// Result summarises one serving run.
type Result struct {
	Backend       string
	CacheFraction float64
	Rate          float64
	Duration      sim.Duration

	Offered   int // requests generated
	Admitted  int // requests that entered the queue
	Dropped   int // requests rejected at a full queue
	Completed int // requests whose batch finished

	// Resilience counts the degraded-serving actions and the proxy layer's
	// fault recovery: arrivals shed at the door (Shed), queued requests
	// rejected by the queue timeout (Rejected), and the dispatched runs'
	// delivery drops/retries (all zero without a fault schedule).
	Resilience metrics.RetryCounters

	Dispatches    int // device batches executed
	PaddedSamples int // bucket slack: shape minus real requests, summed

	// Latencies holds each completed request's arrival-to-completion time,
	// in completion order.
	Latencies []sim.Duration
	// Makespan is when the last dispatch completed (≥ Duration when the
	// queue drained after the arrival window).
	Makespan sim.Duration
	// CacheStats aggregates this run's hot-row cache counters across GPUs
	// (zero when the cache is disabled). The cache set stays warm across a
	// Server's runs, but each run counts only its own row probes.
	CacheStats metrics.CacheCounters
	// DedupStats aggregates the index-deduplication counters across every
	// dispatched batch (zero when Config.Dedup is off).
	DedupStats metrics.DedupCounters

	// OwnerKeys and OwnerBytes accumulate each GPU's served embedding load
	// (pooled-index gathers and HBM vector bytes) across every dispatched
	// batch — nil unless the base configuration shards table-wise.
	OwnerKeys  []int64
	OwnerBytes []float64
	// Rebalances counts adaptive-placement plan swaps applied between
	// dispatches, and MigratedBytes the shard and mirror bytes they copied
	// (both zero unless the base configuration enables AdaptivePlacement).
	Rebalances    int
	MigratedBytes float64
}

// Percentile returns the p-th latency percentile (nearest rank), or 0 when
// no request completed.
func (r *Result) Percentile(p float64) sim.Duration {
	if len(r.Latencies) == 0 {
		return 0
	}
	xs := make([]float64, len(r.Latencies))
	for i, l := range r.Latencies {
		xs[i] = float64(l)
	}
	return sim.Duration(metrics.Percentile(xs, p))
}

// Goodput returns completed requests per second over the run's span.
func (r *Result) Goodput() float64 {
	span := r.Makespan
	if r.Duration > span {
		span = r.Duration
	}
	if span <= 0 {
		return 0
	}
	return float64(r.Completed) / float64(span)
}

// HitRate returns the aggregate cache hit rate (0 without a cache).
func (r *Result) HitRate() float64 { return r.CacheStats.HitRate() }

// Imbalance returns the max/mean spread of the per-GPU pooled-gather counts
// — the placement subsystem's headline balance metric: 1.0 is perfectly
// balanced, GPUs is all load on one device (0 when owner load is not
// tracked). Gather counts, not egress bytes: every owner emits the same
// number of output vectors per batch, it is the HBM row reads that skew.
func (r *Result) Imbalance() float64 {
	if len(r.OwnerKeys) == 0 {
		return 0
	}
	xs := make([]float64, len(r.OwnerKeys))
	for g, k := range r.OwnerKeys {
		xs[g] = float64(k)
	}
	return metrics.Imbalance(xs)
}

// Availability returns the fraction of offered requests that completed —
// the headline resilience number (sheds, queue-full drops and timeout
// rejects all reduce it). 0 when nothing was offered.
func (r *Result) Availability() float64 {
	if r.Offered == 0 {
		return 0
	}
	return float64(r.Completed) / float64(r.Offered)
}

// Run executes the serving simulation.
func (s *Server) Run() (*Result, error) {
	return s.RunContext(context.Background())
}

// RunContext is Run with cancellation; both the macro serving clock and
// every dispatched pipeline run stop when ctx is cancelled.
func (s *Server) RunContext(ctx context.Context) (*Result, error) {
	env := sim.NewEnv()
	res := &Result{
		Backend:       s.backend.Name(),
		CacheFraction: s.base.CacheFraction,
		Rate:          s.cfg.Rate,
		Duration:      s.cfg.Duration,
	}
	// The cache set outlives runs; this run reports only its own activity.
	var cacheBefore metrics.CacheCounters
	if s.caches != nil {
		cacheBefore = s.caches.Stats()
	}

	var (
		queue        []sim.Time // arrival times of admitted, undispatched requests
		arrivalsDone bool
		newWork      = sim.NewSignal(env)
		runErr       error
	)
	kick := func() {
		old := newWork
		newWork = sim.NewSignal(env)
		old.Fire()
	}

	env.Go("arrivals", func(p *sim.Proc) {
		rng := sim.NewRNG(s.cfg.Seed ^ 0x5E17E)
		var t sim.Time
		for {
			t = s.cfg.nextArrival(rng, t)
			if sim.Duration(t) >= s.cfg.Duration {
				break
			}
			p.WaitUntil(t)
			res.Offered++
			// Health-aware load shedding: while a fault window is active and
			// the queue is already deep, refuse at the door. Keyed on the
			// NEXT dispatch index — the one this request would ride.
			if d := s.cfg.Degrade; d.ShedAt > 0 && s.hw.Faults.AnyActive(res.Dispatches) &&
				float64(len(queue)) >= d.ShedAt*float64(s.cfg.QueueCap) {
				res.Resilience.Shed++
				continue
			}
			if len(queue) >= s.cfg.QueueCap {
				res.Dropped++
				continue
			}
			queue = append(queue, t)
			res.Admitted++
			kick()
		}
		p.WaitUntil(sim.Time(s.cfg.Duration))
		arrivalsDone = true
		kick()
	})

	// Pipelined dispatch: with PipelineDepth > 1 the dispatcher keeps up to
	// depth device batches in flight — it hands the next batch to the
	// accelerator as soon as the previous one's EMB exchange stage drains,
	// instead of idling until the full pipeline completes. Fault schedules
	// force depth 1: their windows are expressed against the serial dispatch
	// sequence.
	depth := s.base.PipelineSlots()
	if !s.hw.Faults.Empty() || s.placeCtl != nil {
		// Fault windows are expressed against the serial dispatch sequence,
		// and a placement swap is a barrier: the plan a dispatch compiles
		// against must be the plan it executes under.
		depth = 1
	}
	var (
		completions []sim.Time
		dispatched  int
	)
	if depth > 1 {
		completions = make([]sim.Time, depth)
	}

	env.Go("dispatcher", func(p *sim.Proc) {
		for {
			if len(queue) == 0 {
				if arrivalsDone {
					return
				}
				p.WaitSignal(newWork)
				continue
			}
			// Dynamic batching: wait for more work until the batch fills or
			// the oldest request's patience runs out.
			deadline := queue[0] + sim.Time(s.cfg.MaxWait)
			for len(queue) < s.cfg.MaxBatch && !arrivalsDone && p.Now() < deadline {
				waitWork(p, env, newWork, deadline)
			}
			// Queue-timeout rejection at the dispatch point: when a slow
			// (degraded) previous dispatch left heads older than the budget,
			// fail them fast instead of serving hopelessly late responses.
			if qt := s.cfg.Degrade.QueueTimeout; qt > 0 {
				expired := 0
				for expired < len(queue) && p.Now()-queue[expired] > sim.Time(qt) {
					expired++
				}
				if expired > 0 {
					res.Resilience.Rejected += int64(expired)
					queue = append(queue[:0], queue[expired:]...)
					if len(queue) == 0 {
						continue
					}
				}
			}
			// In-flight cap: slot (dispatched % depth) is free only once the
			// batch that last used it has fully completed.
			if depth > 1 && dispatched >= depth {
				p.WaitUntil(completions[(dispatched-depth)%depth])
			}
			n := len(queue)
			if n > s.cfg.MaxBatch {
				n = s.cfg.MaxBatch
			}
			taken := make([]sim.Time, n)
			copy(taken, queue[:n])
			queue = append(queue[:0], queue[n:]...)

			shape := s.shapes[len(s.shapes)-1]
			for _, b := range s.shapes {
				if b >= n {
					shape = b
					break
				}
			}
			seed := s.base.Seed + uint64(res.Dispatches+1)*1_000_003
			pl, err := dlrm.NewPipelineRun(s.specs[shape], s.backend, s.model, seed)
			if err == nil && s.caches != nil {
				err = pl.Sys.AttachCaches(s.caches)
			}
			if err != nil {
				runErr = err
				return
			}
			if s.placeCtl != nil {
				// Replace the run's private controller with the session's:
				// the dispatch adopts the current plan and mirror set, and
				// its batch feeds the shared statistics.
				pl.Sys.AttachPlacement(s.placeCtl)
			}
			// The dispatch is one internal batch (index 0); shifting it onto
			// the dispatch sequence lets fault windows expressed in dispatch
			// indices unfold across the serving session.
			pl.Sys.SetFaultOffset(res.Dispatches)
			degraded := s.hw.Faults.AnyActive(res.Dispatches)
			if s.cfg.Degrade.StaleCacheServe && s.caches != nil {
				s.caches.SetFrozen(degraded)
			}
			plRes, err := pl.RunContext(ctx)
			if err != nil {
				runErr = err
				return
			}
			res.DedupStats = res.DedupStats.Add(pl.Sys.DedupStats())
			if keys, bytes := pl.Sys.OwnerLoad(); keys != nil {
				if res.OwnerKeys == nil {
					res.OwnerKeys = make([]int64, len(keys))
					res.OwnerBytes = make([]float64, len(keys))
				}
				for g := range keys {
					res.OwnerKeys[g] += keys[g]
					res.OwnerBytes[g] += bytes[g]
				}
			}
			for g := 0; g < pl.Sys.PGAS.NumPEs(); g++ {
				pe := pl.Sys.PGAS.PE(g)
				res.Resilience.Drops += pe.Drops()
				res.Resilience.Retries += pe.Retries()
				res.Resilience.Exhausted += pe.RetriesExhausted()
			}
			if depth > 1 {
				// The batch completes plRes.TotalTime from now; its requests
				// retire then (a scheduled completion event — the event heap's
				// FIFO tie-break keeps completion order deterministic). The
				// dispatcher itself only blocks for the EMB exchange stage,
				// the resource the next dispatch actually contends for.
				done := p.Now() + sim.Time(plRes.TotalTime)
				completions[dispatched%depth] = done
				dispatched++
				env.Schedule(done, func() {
					for _, arr := range taken {
						res.Latencies = append(res.Latencies, sim.Duration(done-arr))
					}
					res.Completed += n
				})
				res.Dispatches++
				res.PaddedSamples += shape - n
				occupancy := plRes.EMBTime
				if plRes.TotalTime < occupancy {
					occupancy = plRes.TotalTime
				}
				p.Wait(occupancy)
				continue
			}
			p.Wait(plRes.TotalTime)
			done := p.Now()
			for _, arr := range taken {
				res.Latencies = append(res.Latencies, sim.Duration(done-arr))
			}
			res.Completed += n
			res.Dispatches++
			res.PaddedSamples += shape - n
			// Adaptive placement: every RebalanceEvery dispatches the shared
			// controller re-plans off the accumulated statistics; the copied
			// shard and mirror bytes occupy the dispatcher for their wire
			// time, so rebalancing delays the queue exactly as the microlevel
			// model charges it (placement forces serial dispatch above).
			if ctl := s.placeCtl; ctl != nil && ctl.Due(res.Dispatches) {
				reb, err := ctl.Rebalance()
				if err != nil {
					runErr = err
					return
				}
				if reb.Swapped {
					res.Rebalances++
				}
				if bytes := reb.MoveBytes + reb.MirrorBytes; bytes > 0 {
					res.MigratedBytes += float64(bytes)
					p.Wait(float64(bytes) / (2 * s.hw.Link.LinkBandwidth))
				}
			}
		}
	})

	if _, err := env.RunContext(ctx); err != nil {
		return nil, fmt.Errorf("serve: %s run: %w", s.backend.Name(), err)
	}
	if runErr != nil {
		return nil, fmt.Errorf("serve: %s run: %w", s.backend.Name(), runErr)
	}
	res.Makespan = sim.Duration(env.Now())
	if s.caches != nil {
		// Thaw: the cache set outlives this run (warm across serving runs in
		// sweeps) and must not stay frozen past a degraded final dispatch.
		s.caches.SetFrozen(false)
		res.CacheStats = s.caches.Stats().Sub(cacheBefore)
	}
	return res, nil
}

// waitWork parks p until more work is signalled or the deadline passes,
// whichever is first.
func waitWork(p *sim.Proc, env *sim.Env, sig *sim.Signal, deadline sim.Time) {
	if deadline <= p.Now() {
		return
	}
	wake := sim.NewSignal(env)
	fire := func() {
		if !wake.Fired() {
			wake.Fire()
		}
	}
	sig.OnFire(fire)
	env.Schedule(deadline, fire)
	p.WaitSignal(wake)
}
