package experiments

import (
	"fmt"

	"pgasemb/internal/metrics"
	"pgasemb/internal/retrieval"
	"pgasemb/internal/serve"
	"pgasemb/internal/sim"
)

// ServingOptions are the axes of the online-serving sweep: backend ×
// arrival rate × cache fraction × dedup, each point one full serving
// simulation on the serving workload (retrieval.ServingScaleConfig).
type ServingOptions struct {
	// Backends are the backends to sweep (default: baseline and
	// pgas-fused). An Overrides.Backends backend replaces them with the
	// baseline and itself.
	Backends []retrieval.Backend
	// Rates are the arrival rates to sweep (requests/second). Required.
	Rates []float64
	// CacheFractions are the hot-row cache sizes to sweep, as fractions of
	// device memory (0 = cache disabled). Required.
	CacheFractions []float64
	// Dedups sweeps batch-level index deduplication on/off (default:
	// {false}). It is the innermost axis, so each (backend, rate, fraction)
	// combination's dedup variants render adjacently.
	Dedups []bool
	// GPUs sizes the serving machine (default 4).
	GPUs int
	// Duration is each point's arrival window (default 2 simulated seconds).
	Duration sim.Duration
	// PipelineDepth sets the workload's inter-batch pipelining depth at
	// every point (0 keeps the workload's own depth; 1 = serial dispatch,
	// ≥2 overlaps in-flight dispatches).
	PipelineDepth int
	// WirePrecision sets the wire transport format for embedding rows at
	// every point (FP32 = uncompressed, the default).
	WirePrecision retrieval.Precision
	// Serve carries the batching knobs (MaxBatch, MaxWait, QueueCap,
	// arrival process); Rate and Duration are overwritten by the sweep.
	Serve serve.Config
}

// Entry returns the serving sweep as an engine entry named "serving", which
// renders the serving table.
func (opts ServingOptions) Entry() Entry {
	return Entry{Name: "serving", Stems: []string{"serving"}, build: func(o Overrides) (sweep[[]Output], error) {
		backends := opts.Backends
		if len(backends) == 0 || len(o.Backends) == 1 {
			backends = o.grid()
		}
		s, err := servingSweep(opts, retrieval.ServingScaleConfig(orDefault(opts.GPUs, 4)),
			retrieval.ClusterHardware(1), backends)
		return rendered(s, func(r *ServingResult) []Output { return tables(r.Table()) }), err
	}}
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

// servingSweep declares the serving sweep's points over base on hw:
// backend-major, then rate, then cache fraction, then dedup. Every point
// owns its server and therefore its cache set.
func servingSweep(opts ServingOptions, base retrieval.Config, hw retrieval.HardwareParams,
	backends []retrieval.Backend) (sweep[*ServingResult], error) {
	if len(opts.Rates) == 0 || len(opts.CacheFractions) == 0 {
		return sweep[*ServingResult]{}, fmt.Errorf("serving sweep needs at least one rate and one cache fraction")
	}
	dedups := opts.Dedups
	if len(dedups) == 0 {
		dedups = []bool{false}
	}
	var pts []point
	for _, b := range backends {
		for _, rate := range opts.Rates {
			for _, frac := range opts.CacheFractions {
				for _, dedup := range dedups {
					cfg := base
					cfg.CacheFraction = frac
					cfg.Dedup = dedup
					cfg.WirePrecision = opts.WirePrecision
					cfg.PipelineDepth = orDefault(opts.PipelineDepth, cfg.PipelineDepth)
					scfg := opts.Serve
					scfg.Rate = rate
					scfg.Duration = orDefault(opts.Duration, 2*sim.Second)
					pts = append(pts, point{kind: serveRun, cfg: cfg, hw: hw, backend: b, serve: scfg})
				}
			}
		}
	}
	return sweep[*ServingResult]{pts, func(outs []outcome) *ServingResult {
		res := &ServingResult{Rates: opts.Rates, CacheFractions: opts.CacheFractions, Dedups: dedups}
		for i, o := range outs {
			r, cfg := o.serve, pts[i].cfg
			res.Points = append(res.Points, ServingPoint{
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
			})
		}
		return res
	}}, nil
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
