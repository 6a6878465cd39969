package experiments

import (
	"context"
	"fmt"

	"pgasemb/internal/metrics"
	"pgasemb/internal/retrieval"
	"pgasemb/internal/serve"
	"pgasemb/internal/sim"
)

// ServingOptions tunes the online-serving sweep: arrival rate × cache
// fraction × backend, each point one full serving simulation.
type ServingOptions struct {
	// Sweep.Backends defaults to baseline and pgas-fused.
	Sweep
	// Rates are the arrival rates to sweep (requests/second). Required.
	Rates []float64
	// CacheFractions are the hot-row cache sizes to sweep, as fractions of
	// device memory (0 = cache disabled). Required.
	CacheFractions []float64
	// Dedups sweeps batch-level index deduplication on/off (default:
	// {false}). It is the innermost axis, so each (backend, rate, fraction)
	// combination's dedup variants render adjacently.
	Dedups []bool
	// GPUs sizes the serving machine (default 4). Ignored when Base is set.
	GPUs int
	// Duration is each point's arrival window (default 2 simulated seconds).
	Duration sim.Duration
	// Base overrides the serving workload configuration (default
	// retrieval.ServingScaleConfig(GPUs)); its CacheFraction is overwritten
	// by the sweep.
	Base *retrieval.Config
	// HW selects the hardware model (nil = calibrated defaults).
	HW *retrieval.HardwareParams
	// PipelineDepth sets the base configuration's inter-batch pipelining
	// depth at every point (0 keeps the base configuration's own depth;
	// 1 = serial dispatch, ≥2 overlaps in-flight dispatches).
	PipelineDepth int
	// WirePrecision sets the wire transport format for embedding rows at
	// every point (FP32 = uncompressed, the default).
	WirePrecision retrieval.Precision
	// Serve carries the batching knobs (MaxBatch, MaxWait, QueueCap,
	// arrival process); Rate and Duration are overwritten by the sweep.
	Serve serve.Config
}

// servingBase returns the Base override, or the serving workload on gpus
// GPUs (default 4).
func servingBase(base *retrieval.Config, gpus int) retrieval.Config {
	if base != nil {
		return *base
	}
	return retrieval.ServingScaleConfig(orDefault(gpus, 4))
}

// ServingPoint is one (backend, rate, cache fraction, dedup) serving run.
type ServingPoint struct {
	Backend       string
	Rate          float64
	CacheFraction float64
	CacheSlots    int
	Dedup         bool

	Offered    int
	Completed  int
	Dropped    int
	Dispatches int

	// Resilience carries the run's degraded-serving and proxy-retry counters
	// (all zero without a fault schedule on the sweep's hardware).
	Resilience metrics.RetryCounters

	HitRate float64
	// DedupStats sums the dedup counters of every dispatched batch (all zero
	// when dedup is off).
	DedupStats metrics.DedupCounters
	P50        sim.Duration
	P95        sim.Duration
	P99        sim.Duration
	Goodput    float64
}

// ServingResult is the full sweep, in backend-major,
// rate-then-fraction-then-dedup order — deterministic for any Parallel.
type ServingResult struct {
	Rates          []float64
	CacheFractions []float64
	Dedups         []bool
	Points         []ServingPoint
}

// RunServing executes the serving sweep. Every grid point owns its server
// (and therefore its cache set), so points are independent and dispatch
// freely onto the worker pool; results land in an index-addressed slice,
// byte-identical at any parallelism. It returns early when ctx is done.
func RunServing(ctx context.Context, opts ServingOptions) (*ServingResult, error) {
	if len(opts.Rates) == 0 || len(opts.CacheFractions) == 0 {
		return nil, fmt.Errorf("experiments: serving sweep needs at least one rate and one cache fraction")
	}
	backends := orList(opts.Backends, []retrieval.Backend{&retrieval.Baseline{}, &retrieval.PGASFused{}})
	dedups := orList(opts.Dedups, []bool{false})
	base := servingBase(opts.Base, opts.GPUs)
	hw := hardware(opts.HW, 1)
	res := &ServingResult{Rates: opts.Rates, CacheFractions: opts.CacheFractions, Dedups: dedups}
	n := len(backends) * len(opts.Rates) * len(opts.CacheFractions) * len(dedups)
	points, err := runJobs(ctx, opts.Sweep, "serving", n, func(i int) (ServingPoint, error) {
		di := i % len(dedups)
		fi := i / len(dedups) % len(opts.CacheFractions)
		ri := i / (len(dedups) * len(opts.CacheFractions)) % len(opts.Rates)
		bi := i / (len(dedups) * len(opts.CacheFractions) * len(opts.Rates))
		backend := backends[bi]

		cfg := base
		cfg.CacheFraction = opts.CacheFractions[fi]
		cfg.Dedup = dedups[di]
		cfg.WirePrecision = opts.WirePrecision
		if opts.PipelineDepth > 0 {
			cfg.PipelineDepth = opts.PipelineDepth
		}
		scfg := opts.Serve
		scfg.Rate = opts.Rates[ri]
		scfg.Duration = orDefault(opts.Duration, 2*sim.Second)
		fail := func(err error) (ServingPoint, error) {
			return ServingPoint{}, fmt.Errorf("experiments: serving, %s rate %.0f frac %g dedup %v: %w",
				backend.Name(), scfg.Rate, cfg.CacheFraction, cfg.Dedup, err)
		}
		srv, err := serve.NewServer(cfg, hw, backend, scfg)
		if err != nil {
			return fail(err)
		}
		r, err := srv.RunContext(ctx)
		if err != nil {
			return fail(err)
		}
		return ServingPoint{
			Backend:       r.Backend,
			Rate:          r.Rate,
			CacheFraction: r.CacheFraction,
			CacheSlots:    cfg.CacheSlots(hw.GPU),
			Dedup:         cfg.Dedup,
			Offered:       r.Offered,
			Completed:     r.Completed,
			Dropped:       r.Dropped,
			Dispatches:    r.Dispatches,
			Resilience:    r.Resilience,
			HitRate:       r.HitRate(),
			DedupStats:    r.DedupStats,
			P50:           r.Percentile(50),
			P95:           r.Percentile(95),
			P99:           r.Percentile(99),
			Goodput:       r.Goodput(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	res.Points = points
	return res, nil
}

// P99Series returns the p99 latencies (seconds) across cache fractions for
// one backend at one rate — the sweep's headline curve.
func (r *ServingResult) P99Series(backend string, rate float64) []float64 {
	var out []float64
	for _, p := range r.Points {
		if p.Backend == backend && p.Rate == rate {
			out = append(out, float64(p.P99))
		}
	}
	return out
}

// Table renders the sweep. The dedup columns appear only when the sweep
// actually carried a dedup-enabled point, so default sweeps render as
// before.
func (r *ServingResult) Table() *Table {
	hasDedup := false
	for _, d := range r.Dedups {
		hasDedup = hasDedup || d
	}
	t := &Table{
		Title: "Online serving: tail latency and goodput vs hot-row cache size",
		Headers: []string{"backend", "rate_rps", "cache_frac", "hit_rate",
			"p50_ms", "p95_ms", "p99_ms", "goodput_rps", "dropped", "dispatches"},
	}
	if hasDedup {
		t.Headers = append(t.Headers, "dedup", "uniq_frac", "wire_saved_mb")
	}
	for _, p := range r.Points {
		row := []string{
			p.Backend,
			fmt.Sprintf("%.0f", p.Rate),
			fmt.Sprintf("%.4f", p.CacheFraction),
			fmt.Sprintf("%.3f", p.HitRate),
			fmt.Sprintf("%.3f", float64(p.P50)/float64(sim.Millisecond)),
			fmt.Sprintf("%.3f", float64(p.P95)/float64(sim.Millisecond)),
			fmt.Sprintf("%.3f", float64(p.P99)/float64(sim.Millisecond)),
			fmt.Sprintf("%.1f", p.Goodput),
			fmt.Sprintf("%d", p.Dropped),
			fmt.Sprintf("%d", p.Dispatches),
		}
		if hasDedup {
			row = append(row,
				fmt.Sprintf("%v", p.Dedup),
				fmt.Sprintf("%.3f", p.DedupStats.UniqueFraction()),
				fmt.Sprintf("%.2f", p.DedupStats.WireSavedBytes/1e6),
			)
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
