// Package serve is the online inference serving layer: an open-loop request
// generator (Poisson or bursty arrivals on the simulated clock), a bounded
// admission queue, and a dynamic batcher that coalesces pending requests
// into device batches under a max-latency/max-batch policy and dispatches
// them through the DLRM pipeline on either retrieval backend.
//
// A serving session is one simulation on one machine: arrivals, batching and
// every dispatched batch's GPU processes share one clock, and the batches
// share the machine's devices, links, runtimes and per-GPU hot-row embedding
// cache (internal/cache), which stays warm across dispatches, so a skewed
// request stream builds up cache residency exactly as a production parameter
// server would. Requests complete when their batch does; latency =
// completion − arrival.
package serve

import (
	"context"
	"fmt"
	"math"

	"pgasemb/internal/dlrm"
	"pgasemb/internal/metrics"
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
	// Degrade is the degraded-serving policy: its ShedAt and
	// StaleCacheServe act only while the hardware's fault schedule has an
	// active event, its QueueTimeout at every dispatch. The zero value serves
	// every admitted request normally regardless of machine health.
	Degrade DegradePolicy
}

// DegradePolicy decides what the serving layer sacrifices: availability for
// new arrivals and freshness for cache stability while the machine is
// unhealthy (a fault-schedule event is active at the current dispatch
// index), and latency for stale queue heads at every dispatch, healthy or
// not. Each knob is independent; the zero value disables all three.
type DegradePolicy struct {
	// QueueTimeout rejects queued requests older than this at every
	// dispatch, whether or not a fault is active (0 disables): during an
	// outage it fails the stale heads fast instead of serving hopelessly
	// late responses, bounding the tail the survivors see.
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
	if c.BurstFactor == 0 {
		c.BurstFactor = 4
	}
	if c.BurstCycle == 0 {
		c.BurstCycle = 100 * sim.Millisecond
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = base.BatchSize
	}
	if c.MaxWait == 0 {
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

// Server owns the immutable pieces of a serving setup: the bucketed system
// specs (one per device batch shape) and the shared model. Each Run is one
// session on a machine of its own, which starts cold.
type Server struct {
	base    retrieval.Config
	hw      retrieval.HardwareParams
	backend retrieval.Backend
	cfg     Config
	shapes  []int // ascending device batch shapes (halving buckets)
	specs   map[int]*retrieval.SystemSpec
	model   *dlrm.Model
	// observe, when set, sees each dispatch as it retires: the pipeline it
	// ran on, its seed, and when it was dispatched and completed.
	observe func(pl *dlrm.Pipeline, seed uint64, start, done sim.Time)
}

// NewServer validates and wires a serving setup. The base configuration's
// BatchSize is the largest device batch; dispatches smaller than it run on
// halving bucket shapes (BatchSize, BatchSize/2, ... down to the GPU count)
// so short queues are not padded to the full batch.
func NewServer(base retrieval.Config, hw retrieval.HardwareParams, backend retrieval.Backend, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults(base)
	switch {
	case !positiveFinite(cfg.Rate):
		return nil, fmt.Errorf("serve: Rate must be positive and finite, got %v", cfg.Rate)
	case !positiveFinite(cfg.Duration):
		return nil, fmt.Errorf("serve: Duration must be positive and finite, got %v", cfg.Duration)
	case cfg.MaxBatch > base.BatchSize:
		return nil, fmt.Errorf("serve: MaxBatch %d exceeds the base batch size %d", cfg.MaxBatch, base.BatchSize)
	case !positiveFinite(cfg.MaxWait):
		return nil, fmt.Errorf("serve: MaxWait must be positive and finite, got %v", cfg.MaxWait)
	case !positiveFinite(cfg.BurstCycle):
		return nil, fmt.Errorf("serve: BurstCycle must be positive and finite, got %v", cfg.BurstCycle)
	case !(cfg.BurstFactor >= 1) || math.IsInf(cfg.BurstFactor, 1):
		// Below 1 the on window would outlast the cycle, and the mean rate
		// would fall short of Rate.
		return nil, fmt.Errorf("serve: BurstFactor must be at least 1 and finite, got %v", cfg.BurstFactor)
	}
	base.Batches = 1 // each dispatch is one batch

	srv := &Server{base: base, hw: hw, backend: backend, cfg: cfg}
	for shape := base.BatchSize; shape >= base.GPUs; shape /= 2 {
		srv.shapes = append([]int{shape}, srv.shapes...)
	}
	// The bucket specs derive from the largest so they share one Zipf rank
	// table, built lazily by the session's machine.
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
	return srv, nil
}

// positiveFinite reports whether x is a usable positive quantity.
func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

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
	// in dispatch order.
	Latencies []sim.Duration
	// Makespan is when the last dispatch completed (≥ Duration when the
	// queue drained after the arrival window).
	Makespan sim.Duration
	// CacheStats aggregates the session's hot-row cache counters across GPUs
	// (zero when the cache is disabled).
	CacheStats metrics.CacheCounters
	// DedupStats aggregates the index-deduplication counters across every
	// dispatched batch (zero when Config.Dedup is off).
	DedupStats metrics.DedupCounters

	// Rebalances counts adaptive-placement plan swaps applied at dispatch
	// boundaries, and MigratedBytes the shard and mirror bytes they copied
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

// RunContext is Run with cancellation: the session's clock stops when ctx is
// cancelled.
//
// The session builds its machine from the largest shape's spec, whose device
// allocations cover every smaller shape, and wires each other shape's
// pipeline onto it at that shape's first dispatch. Dispatch d draws its batch
// from seed base.Seed + (d+1)·1_000_003. Up to the machine's pipeline depth
// (System.PipelineDepth) of dispatches are in flight; with that many, the
// dispatcher waits for the oldest to complete before it forms the next
// batch, so at depth 1 every dispatch starts on an idle machine. At depth
// d > 1 a dispatch's GPUs start once the previous dispatch's EMB exchange
// has drained, and contend with its dense path. Fault windows and rebalance
// epochs are keyed on the dispatch index, which is the machine's batch
// index.
func (s *Server) RunContext(ctx context.Context) (*Result, error) {
	top, err := dlrm.NewPipelineRun(s.specs[s.base.BatchSize], s.backend, s.model, s.base.Seed)
	if err != nil {
		return nil, fmt.Errorf("serve: %s run: %w", s.backend.Name(), err)
	}
	pipes := map[int]*dlrm.Pipeline{s.base.BatchSize: top}
	sys := top.Sys
	env := sys.Env
	res := &Result{
		Backend:       s.backend.Name(),
		CacheFraction: s.base.CacheFraction,
		Rate:          s.cfg.Rate,
		Duration:      s.cfg.Duration,
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
			// count of completed dispatches.
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

	// inFlight holds the dispatched, uncompleted batches, oldest first.
	type dispatch struct {
		flight *retrieval.Flight
		taken  []sim.Time // the batch's requests' arrival times
		pad    int
		pl     *dlrm.Pipeline
		seed   uint64
		start  sim.Time
	}
	var inFlight []dispatch
	depth, launched := sys.PipelineDepth(), 0
	env.Go("dispatcher", func(p *sim.Proc) {
		for {
			if len(inFlight) == depth || len(inFlight) > 0 && len(queue) == 0 && arrivalsDone {
				d := inFlight[0]
				inFlight = inFlight[1:]
				p.WaitSignal(d.flight.Done)
				if runErr = d.flight.Err(); runErr != nil {
					return
				}
				done := d.flight.Done.FiredAt()
				for _, arr := range d.taken {
					res.Latencies = append(res.Latencies, sim.Duration(done-arr))
				}
				res.Completed += len(d.taken)
				res.Dispatches++
				res.PaddedSamples += d.pad
				res.Makespan = max(res.Makespan, sim.Duration(done))
				if s.observe != nil {
					s.observe(d.pl, d.seed, d.start, done)
				}
				continue
			}
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
			pl := pipes[shape]
			if pl == nil {
				if pl, runErr = top.On(s.specs[shape]); runErr != nil {
					return
				}
				pipes[shape] = pl
			}
			if s.cfg.Degrade.StaleCacheServe && sys.Caches != nil {
				sys.Caches.SetFrozen(s.hw.Faults.AnyActive(launched))
			}
			seed := s.base.Seed + uint64(launched+1)*1_000_003
			flight := pl.Start(ctx, seed)
			launched++
			inFlight = append(inFlight, dispatch{flight, taken, shape - n, pl, seed, p.Now()})
		}
	})

	if _, err := env.RunContext(ctx); err != nil {
		return nil, fmt.Errorf("serve: %s run: %w", s.backend.Name(), err)
	}
	if runErr != nil {
		return nil, fmt.Errorf("serve: %s run: %w", s.backend.Name(), runErr)
	}
	res.Makespan = max(res.Makespan, s.cfg.Duration)
	res.DedupStats = sys.DedupStats()
	res.Rebalances, res.MigratedBytes = sys.Migration()
	if sys.Caches != nil {
		res.CacheStats = sys.Caches.Stats()
	}
	for g := 0; g < sys.PGAS.NumPEs(); g++ {
		pe := sys.PGAS.PE(g)
		res.Resilience.Drops += pe.Drops()
		res.Resilience.Retries += pe.Retries()
		res.Resilience.Exhausted += pe.RetriesExhausted()
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
