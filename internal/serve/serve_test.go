package serve

import (
	"math"
	"reflect"
	"testing"

	"pgasemb/internal/dlrm"
	"pgasemb/internal/fault"
	"pgasemb/internal/retrieval"
	"pgasemb/internal/sim"
	"pgasemb/internal/tensor"
	"pgasemb/internal/trace"
	"pgasemb/internal/workload"
)

// serveTestConfig returns a small timing-only skewed configuration that a
// serving test can dispatch many batches of quickly.
func serveTestConfig() retrieval.Config {
	cfg := retrieval.TestScaleConfig(2)
	cfg.Functional = false
	cfg.NullProbability = 0
	cfg.MinPooling = 1
	cfg.Distribution = workload.Zipf
	cfg.ZipfExponent = 1.2
	return cfg
}

func serveTestServeConfig() Config {
	return Config{
		Rate:     2000,
		Duration: 50 * sim.Millisecond,
		MaxBatch: 32,
		MaxWait:  2 * sim.Millisecond,
	}
}

func runOnce(t *testing.T, base retrieval.Config, cfg Config, backend retrieval.Backend) *Result {
	t.Helper()
	srv, err := NewServer(base, retrieval.DefaultHardware(), backend, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := srv.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// Same seed, same configuration: two serving runs must agree bit-exactly on
// every count and every latency sample.
func TestServingDeterminism(t *testing.T) {
	a := runOnce(t, serveTestConfig(), serveTestServeConfig(), &retrieval.PGASFused{})
	b := runOnce(t, serveTestConfig(), serveTestServeConfig(), &retrieval.PGASFused{})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed serving runs diverged:\n%+v\n%+v", a, b)
	}
	if a.Completed == 0 {
		t.Fatal("serving run completed no requests; test exercises nothing")
	}
}

// Every generated request must be accounted for: admitted or dropped at
// arrival, and every admitted request completed once the queue drains.
func TestServingCountConservation(t *testing.T) {
	for _, arrival := range []Arrival{Poisson, Bursty} {
		cfg := serveTestServeConfig()
		cfg.Arrival = arrival
		cfg.QueueCap = 48 // tight enough that bursty load can overflow it
		res := runOnce(t, serveTestConfig(), cfg, &retrieval.PGASFused{})
		if res.Offered != res.Admitted+res.Dropped {
			t.Fatalf("%s: offered %d != admitted %d + dropped %d",
				arrival, res.Offered, res.Admitted, res.Dropped)
		}
		if res.Completed != res.Admitted {
			t.Fatalf("%s: completed %d != admitted %d after drain",
				arrival, res.Completed, res.Admitted)
		}
		if len(res.Latencies) != res.Completed {
			t.Fatalf("%s: %d latency samples for %d completions",
				arrival, len(res.Latencies), res.Completed)
		}
		for _, l := range res.Latencies {
			if l <= 0 {
				t.Fatalf("%s: non-positive latency %g", arrival, float64(l))
			}
		}
		if res.Makespan < res.Duration {
			t.Fatalf("%s: makespan %g below arrival window %g",
				arrival, float64(res.Makespan), float64(res.Duration))
		}
	}
}

// Both arrival processes must realise the configured MEAN rate: bursty
// arrivals redistribute load inside each cycle but preserve its total.
func TestArrivalMeanRate(t *testing.T) {
	for _, arrival := range []Arrival{Poisson, Bursty} {
		cfg := Config{Arrival: arrival, Rate: 5000, BurstFactor: 4, BurstCycle: 10 * sim.Millisecond}
		rng := sim.NewRNG(99)
		const horizon = 20.0 // simulated seconds
		var t0 sim.Time
		n := 0
		for {
			t0 = cfg.nextArrival(rng, t0)
			if float64(t0) >= horizon {
				break
			}
			n++
		}
		got := float64(n) / horizon
		if math.Abs(got-cfg.Rate)/cfg.Rate > 0.15 {
			t.Fatalf("%s: empirical rate %.0f rps, want %.0f ±15%%", arrival, got, cfg.Rate)
		}
	}
}

// With a hot-row cache configured, residency must persist across dispatches:
// the cache fills early and later batches hit it.
func TestServingCacheWarmsAcrossDispatches(t *testing.T) {
	base := serveTestConfig()
	base.CacheFraction = 0.003
	hw := retrieval.DefaultHardware()
	hw.GPU.MemoryCapacity = 1 << 20

	srv, err := NewServer(base, hw, &retrieval.PGASFused{}, serveTestServeConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := srv.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Dispatches < 2 {
		t.Fatalf("only %d dispatches; cache persistence not exercised", res.Dispatches)
	}
	if res.CacheStats.Hits == 0 {
		t.Fatal("cache saw no hits across dispatches")
	}
	if res.CacheStats.Insertions == 0 {
		t.Fatal("cache saw no insertions")
	}
	if res.HitRate() <= 0 {
		t.Fatalf("hit rate %g not positive", res.HitRate())
	}
}

// Each Run is one session on a machine of its own, which starts cold: a
// second run of one Server makes the same row probes and returns the same
// result as the first.
func TestServingCacheCountsPerRun(t *testing.T) {
	base := serveTestConfig()
	base.CacheFraction = 0.003
	hw := retrieval.DefaultHardware()
	hw.GPU.MemoryCapacity = 1 << 20

	srv, err := NewServer(base, hw, &retrieval.PGASFused{}, serveTestServeConfig())
	if err != nil {
		t.Fatal(err)
	}
	first, err := srv.Run()
	if err != nil {
		t.Fatal(err)
	}
	second, err := srv.Run()
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheStats.Accesses() == 0 {
		t.Fatal("first run probed no rows; the test exercises nothing")
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("a second run of one server differs from the first:\n%+v\n%+v", first, second)
	}
}

// The batcher must bucket partial batches onto smaller device shapes rather
// than padding everything to the full batch size.
func TestServingBucketsPartialBatches(t *testing.T) {
	base := serveTestConfig()
	cfg := serveTestServeConfig()
	cfg.Rate = 300 // sparse arrivals: most dispatches time out well short of MaxBatch
	srv, err := NewServer(base, retrieval.DefaultHardware(), &retrieval.PGASFused{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	shapes := srv.Shapes()
	if len(shapes) < 2 || shapes[0] != base.GPUs || shapes[len(shapes)-1] != base.BatchSize {
		t.Fatalf("bucket shapes %v, want %d..%d halving", shapes, base.GPUs, base.BatchSize)
	}
	res, err := srv.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Dispatches == 0 {
		t.Fatal("no dispatches")
	}
	// If every dispatch padded to the full batch, slack would average
	// MaxBatch minus the mean batch fill; bucketing must do better than
	// half the full shape per dispatch.
	if float64(res.PaddedSamples)/float64(res.Dispatches) >= float64(cfg.MaxBatch)/2 {
		t.Fatalf("mean pad %g ≥ half the max batch; bucketing not effective",
			float64(res.PaddedSamples)/float64(res.Dispatches))
	}
}

func runOnceHW(t *testing.T, base retrieval.Config, hw retrieval.HardwareParams, cfg Config, backend retrieval.Backend) *Result {
	t.Helper()
	srv, err := NewServer(base, hw, backend, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := srv.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// alwaysDegraded is a fault schedule active from the first dispatch on, for
// exercising the health-keyed degradation paths.
func alwaysDegraded() *fault.Schedule {
	return &fault.Schedule{Events: []fault.Event{
		{Kind: fault.Straggler, FromBatch: 0, GPU: 1, Factor: 1.5},
	}}
}

// A bounded admission queue must overflow under sustained overload: drops are
// counted, conservation holds, and a rerun reproduces the run bit-exactly.
func TestServingQueueOverflowDeterministic(t *testing.T) {
	cfg := serveTestServeConfig()
	cfg.Rate = 20000
	cfg.MaxBatch = 8
	cfg.QueueCap = 8
	a := runOnce(t, serveTestConfig(), cfg, &retrieval.PGASFused{})
	b := runOnce(t, serveTestConfig(), cfg, &retrieval.PGASFused{})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed overflow runs diverged:\n%+v\n%+v", a, b)
	}
	if a.Dropped == 0 {
		t.Fatal("overloaded bounded queue dropped nothing; overflow not exercised")
	}
	if a.Completed == 0 {
		t.Fatal("no request completed under overload")
	}
	if a.Offered != a.Admitted+a.Dropped {
		t.Fatalf("offered %d != admitted %d + dropped %d", a.Offered, a.Admitted, a.Dropped)
	}
	if avail := a.Availability(); avail <= 0 || avail >= 1 {
		t.Fatalf("availability %g under overload, want in (0, 1)", avail)
	}
}

// DegradePolicy.QueueTimeout must fail stale queue heads at the dispatch
// point: rejects are counted, rejected requests never complete (and produce
// no latency samples), and reruns are bit-exact.
func TestServingQueueTimeoutRejects(t *testing.T) {
	cfg := serveTestServeConfig()
	cfg.MaxWait = 5 * sim.Millisecond
	cfg.Degrade = DegradePolicy{QueueTimeout: sim.Millisecond}
	a := runOnce(t, serveTestConfig(), cfg, &retrieval.PGASFused{})
	b := runOnce(t, serveTestConfig(), cfg, &retrieval.PGASFused{})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed queue-timeout runs diverged:\n%+v\n%+v", a, b)
	}
	if a.Resilience.Rejected == 0 {
		t.Fatal("1ms queue timeout under a 5ms batching wait rejected nothing")
	}
	if int64(a.Completed)+a.Resilience.Rejected != int64(a.Admitted) {
		t.Fatalf("completed %d + rejected %d != admitted %d",
			a.Completed, a.Resilience.Rejected, a.Admitted)
	}
	if len(a.Latencies) != a.Completed {
		t.Fatalf("%d latency samples for %d completions", len(a.Latencies), a.Completed)
	}
	if avail := a.Availability(); avail >= 1 {
		t.Fatalf("availability %g with rejects, want < 1", avail)
	}
}

// DegradePolicy.ShedAt must refuse arrivals at the door while a fault window
// is active and the queue is deep; shed requests are neither admitted nor
// dropped.
func TestServingDegradedShedding(t *testing.T) {
	hw := retrieval.DefaultHardware()
	hw.Faults = alwaysDegraded()
	cfg := serveTestServeConfig()
	cfg.Rate = 20000
	cfg.MaxBatch = 8
	cfg.QueueCap = 16
	cfg.Degrade = DegradePolicy{ShedAt: 0.5}
	a := runOnceHW(t, serveTestConfig(), hw, cfg, &retrieval.PGASFused{})
	b := runOnceHW(t, serveTestConfig(), hw, cfg, &retrieval.PGASFused{})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed shedding runs diverged:\n%+v\n%+v", a, b)
	}
	if a.Resilience.Shed == 0 {
		t.Fatal("degraded overload shed nothing")
	}
	if int64(a.Offered) != int64(a.Admitted+a.Dropped)+a.Resilience.Shed {
		t.Fatalf("offered %d != admitted %d + dropped %d + shed %d",
			a.Offered, a.Admitted, a.Dropped, a.Resilience.Shed)
	}
	if a.Completed != a.Admitted {
		t.Fatalf("completed %d != admitted %d (no queue timeout set)", a.Completed, a.Admitted)
	}
	// Shedding holds the queue at the threshold, so plain queue-full drops
	// cannot also fire: the door refuses before the queue fills.
	if a.Dropped != 0 {
		t.Fatalf("shedding at half capacity left %d queue-full drops", a.Dropped)
	}
}

// DegradePolicy.StaleCacheServe must freeze hot-row cache admission during
// degraded dispatches: misses are counted as frozen rejects instead of
// churning residency.
func TestServingStaleCacheServe(t *testing.T) {
	base := serveTestConfig()
	base.CacheFraction = 0.003
	hw := retrieval.DefaultHardware()
	hw.GPU.MemoryCapacity = 1 << 20
	hw.Faults = alwaysDegraded()
	cfg := serveTestServeConfig()
	cfg.Degrade = DegradePolicy{StaleCacheServe: true}
	res := runOnceHW(t, base, hw, cfg, &retrieval.PGASFused{})
	if res.Dispatches == 0 {
		t.Fatal("no dispatches")
	}
	// The schedule is active from dispatch 0, so the cache is frozen for the
	// whole run: admission never happens, every miss is a frozen reject.
	if res.CacheStats.Insertions != 0 {
		t.Fatalf("frozen cache admitted %d rows", res.CacheStats.Insertions)
	}
	if res.CacheStats.FrozenRejects == 0 {
		t.Fatal("frozen cache counted no rejected admissions")
	}
}

// Misconfigured servers must be rejected up front.
func TestServerValidation(t *testing.T) {
	base := serveTestConfig()
	hw := retrieval.DefaultHardware()
	if _, err := NewServer(base, hw, &retrieval.PGASFused{}, Config{Duration: sim.Millisecond}); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := NewServer(base, hw, &retrieval.PGASFused{}, Config{Rate: 100}); err == nil {
		t.Fatal("zero duration accepted")
	}
	if _, err := NewServer(base, hw, &retrieval.PGASFused{}, Config{Rate: 100, Duration: sim.Millisecond, MaxBatch: base.BatchSize * 2}); err == nil {
		t.Fatal("MaxBatch above base batch size accepted")
	}
	// Inputs that would hang the arrival process, run until the context
	// ends, or silently serve another rate.
	inf, nan := math.Inf(1), math.NaN()
	for name, cfg := range map[string]Config{
		"Rate +Inf":        {Rate: inf, Duration: sim.Millisecond},
		"Rate NaN":         {Rate: nan, Duration: sim.Millisecond},
		"Duration +Inf":    {Rate: 100, Duration: inf},
		"Duration NaN":     {Rate: 100, Duration: nan},
		"MaxWait +Inf":     {Rate: 100, Duration: sim.Millisecond, MaxWait: inf},
		"MaxWait NaN":      {Rate: 100, Duration: sim.Millisecond, MaxWait: nan},
		"BurstCycle +Inf":  {Rate: 100, Duration: sim.Millisecond, Arrival: Bursty, BurstCycle: inf},
		"BurstCycle NaN":   {Rate: 100, Duration: sim.Millisecond, Arrival: Bursty, BurstCycle: nan},
		"BurstFactor 0.5":  {Rate: 100, Duration: sim.Millisecond, Arrival: Bursty, BurstFactor: 0.5},
		"BurstFactor NaN":  {Rate: 100, Duration: sim.Millisecond, Arrival: Bursty, BurstFactor: nan},
		"BurstFactor +Inf": {Rate: 100, Duration: sim.Millisecond, Arrival: Bursty, BurstFactor: inf},
	} {
		if _, err := NewServer(base, hw, &retrieval.PGASFused{}, cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// observedDispatch is one dispatch as Server.observe saw it.
type observedDispatch struct {
	pl          *dlrm.Pipeline
	seed        uint64
	start, done sim.Time
}

// observedRun serves cfg on base and returns the result and every dispatch.
func observedRun(t *testing.T, base retrieval.Config, cfg Config) (*Server, *Result, []observedDispatch) {
	t.Helper()
	srv, err := NewServer(base, retrieval.DefaultHardware(), &retrieval.PGASFused{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ds []observedDispatch
	srv.observe = func(pl *dlrm.Pipeline, seed uint64, start, done sim.Time) {
		ds = append(ds, observedDispatch{pl, seed, start, done})
	}
	res, err := srv.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != res.Dispatches {
		t.Fatalf("observed %d dispatches, the result counts %d", len(ds), res.Dispatches)
	}
	return srv, res, ds
}

// standalone returns d's service time as a pipeline run of its own: a fresh
// machine at d's shape and seed.
func standalone(t *testing.T, srv *Server, d observedDispatch) sim.Duration {
	t.Helper()
	pl, err := dlrm.NewPipelineRun(srv.specs[d.pl.Sys.Cfg.BatchSize], srv.backend, srv.model, d.seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pl.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res.TotalTime
}

// At depth 1 every dispatch starts on an idle machine, so sharing one machine
// across the session changes no service time: each dispatch takes exactly as
// long as a standalone pipeline run of its shape and seed, up to the rounding
// of absolute times against durations.
func TestServingDispatchMatchesStandalone(t *testing.T) {
	srv, _, ds := observedRun(t, serveTestConfig(), serveTestServeConfig())
	shapes := map[int]bool{}
	var worst float64
	for i, d := range ds {
		shapes[d.pl.Sys.Cfg.BatchSize] = true
		got, want := d.done-d.start, standalone(t, srv, d)
		gap := math.Abs(got-want) / want
		worst = max(worst, gap)
		if gap > 1e-12 {
			t.Errorf("dispatch %d (batch %d): served in %g s, standalone %g s", i, d.pl.Sys.Cfg.BatchSize, got, want)
		}
	}
	if len(shapes) < 2 {
		t.Fatalf("dispatches ran %d shape(s); the shared machine's smaller shapes go unchecked", len(shapes))
	}
	t.Logf("%d dispatches over %d shapes: largest relative gap %.3g", len(ds), len(shapes), worst)
}

// At depth 2 a dispatch's exchange overlaps the previous one's dense tail on
// the same machine: no dispatch is served faster than it would run alone,
// and contention for the dense stream makes some strictly slower.
func TestServingPipelinedContention(t *testing.T) {
	base := serveTestConfig()
	base.PipelineDepth = 2
	cfg := serveTestServeConfig()
	cfg.Rate = 20000
	srv, _, ds := observedRun(t, base, cfg)
	slower := 0
	for i, d := range ds {
		got, alone := d.done-d.start, standalone(t, srv, d)
		if got < alone*(1-1e-12) {
			t.Errorf("dispatch %d: served in %g s, faster than its standalone %g s", i, got, alone)
		}
		if got > alone*(1+1e-9) {
			slower++
		}
	}
	if slower == 0 {
		t.Fatalf("none of %d overlapped dispatches met contention", len(ds))
	}
	t.Logf("%d of %d dispatches slowed by contention", slower, len(ds))
}

// Pipelined dispatch: with PipelineDepth > 1 the dispatcher keeps multiple
// device batches in flight. The run must stay deterministic (same seed ⇒
// byte-identical Result), conserve every request, and drain the queue no
// later than the serial dispatcher does.
func TestServingPipelinedDeterminism(t *testing.T) {
	run := func(depth int) *Result {
		base := serveTestConfig()
		base.PipelineDepth = depth
		return runOnce(t, base, serveTestServeConfig(), &retrieval.PGASFused{})
	}
	serial := run(1)
	for _, depth := range []int{2, 3} {
		a, b := run(depth), run(depth)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("depth %d: same-seed serving runs diverged:\n%+v\n%+v", depth, a, b)
		}
		if a.Completed == 0 {
			t.Fatalf("depth %d: no requests completed; test exercises nothing", depth)
		}
		if a.Offered != a.Admitted+a.Dropped {
			t.Fatalf("depth %d: offered %d != admitted %d + dropped %d",
				depth, a.Offered, a.Admitted, a.Dropped)
		}
		if a.Completed != a.Admitted {
			t.Fatalf("depth %d: completed %d != admitted %d after drain", depth, a.Completed, a.Admitted)
		}
		if len(a.Latencies) != a.Completed {
			t.Fatalf("depth %d: %d latency samples for %d completions", depth, len(a.Latencies), a.Completed)
		}
		t.Logf("depth %d: completed %d in makespan %.3fms (serial: %d in %.3fms), goodput %.0f vs %.0f rps",
			depth, a.Completed, float64(a.Makespan)*1e3, serial.Completed, float64(serial.Makespan)*1e3,
			a.Goodput(), serial.Goodput())
	}
}

// Under saturating load the pipelined dispatcher's overlap is what sets the
// service rate: keeping a second batch in flight while the first drains its
// dense tail must not lower goodput, and the queue must drain no later.
func TestServingPipelinedGoodput(t *testing.T) {
	run := func(depth int) *Result {
		base := serveTestConfig()
		base.PipelineDepth = depth
		cfg := serveTestServeConfig()
		cfg.Rate = 20000 // saturate: the dispatcher, not arrivals, is the bottleneck
		cfg.QueueCap = 4096
		return runOnce(t, base, cfg, &retrieval.PGASFused{})
	}
	serial := run(1)
	piped := run(2)
	if piped.Completed == 0 {
		t.Fatal("pipelined run completed nothing")
	}
	if piped.Makespan > serial.Makespan {
		t.Errorf("pipelined makespan %.3fms exceeds serial %.3fms",
			float64(piped.Makespan)*1e3, float64(serial.Makespan)*1e3)
	}
	if piped.Goodput() < serial.Goodput() {
		t.Errorf("pipelined goodput %.0f rps below serial %.0f rps",
			piped.Goodput(), serial.Goodput())
	}
	t.Logf("saturated: serial %d reqs / %.3fms (%.0f rps), depth-2 %d reqs / %.3fms (%.0f rps)",
		serial.Completed, float64(serial.Makespan)*1e3, serial.Goodput(),
		piped.Completed, float64(piped.Makespan)*1e3, piped.Goodput())
}

// TestServingAdaptivePlacement pins placement on the serving machine: its
// controller accumulates statistics across dispatches and re-plans every
// RebalanceEvery DISPATCHES; the swap shows up in the result counters, the
// whole trajectory is deterministic, and a dispatch that opens an epoch
// completes no earlier than its migration traffic can have landed on the
// machine's pipes, because its GPUs wait for the last delivery. The cached
// input runs the same session beside the warm hot-row cache: cache keys name
// (table, row), so plan swaps keep its hits.
func TestServingAdaptivePlacement(t *testing.T) {
	base := serveTestConfig()
	base.PerFeatureMaxPooling = []int{12, 8, 3, 3, 3, 3}
	base.AdaptivePlacement = true
	base.RebalanceEvery = 4
	cfg := serveTestServeConfig()
	cfg.Duration = 200 * sim.Millisecond // ~12 dispatches: several epochs
	for _, in := range []struct {
		name          string
		cacheFraction float64
	}{
		{"uncached", 0},
		{"cached", 1e-8},
	} {
		t.Run(in.name, func(t *testing.T) {
			b := base
			b.CacheFraction = in.cacheFraction
			_, a, ds := observedRun(t, b, cfg)
			if again := runOnce(t, b, cfg, &retrieval.PGASFused{}); !reflect.DeepEqual(a, again) {
				t.Fatalf("same-seed adaptive serving runs diverged:\n%+v\n%+v", a, again)
			}
			if a.Dispatches < 8 {
				t.Fatalf("only %d dispatches; the session never crossed a rebalance boundary twice", a.Dispatches)
			}
			if a.Rebalances == 0 {
				t.Fatal("adaptive serving session never swapped plans on a skewed stream")
			}
			if in.cacheFraction > 0 && a.CacheStats.Hits == 0 {
				t.Fatal("cached adaptive serving session saw no cache hits")
			}
			if a.MigratedBytes <= 0 {
				t.Fatal("plan swaps reported no migration traffic")
			}
			var seen float64 // migrated bytes as of the previous dispatch
			epochs := 0
			for i, d := range ds {
				_, migrated := d.pl.Sys.Migration()
				if migrated == seen {
					continue
				}
				// Dispatch i opened an epoch; its migration's sends share the
				// machine's pipes, so they cannot all land before the bytes
				// have crossed at the pipes' combined bandwidth.
				epochs++
				var bw float64
				for src := 0; src < b.GPUs; src++ {
					for dst := 0; dst < b.GPUs; dst++ {
						if src != dst {
							bw += d.pl.Sys.Fab.Pipe(src, dst).Bandwidth()
						}
					}
				}
				if wire := (migrated - seen) / bw; d.done-d.start < wire {
					t.Errorf("dispatch %d opened an epoch moving %g bytes (%g s on the wire) but completed %g s after dispatch",
						i, migrated-seen, wire, d.done-d.start)
				}
				seen = migrated
			}
			if epochs == 0 {
				t.Fatal("no dispatch opened an epoch that migrated bytes")
			}
			t.Logf("%d dispatches, %d rebalances, %d migrating epochs, %d cache hits",
				a.Dispatches, a.Rebalances, epochs, a.CacheStats.Hits)
		})
	}
}

// dispatchProbe wraps a backend and records each dispatch's EMB span — the
// longest RunBatch on any GPU — with the system and batch it ran. At the
// first RunBatch of a dispatch whose draw migrated tables it checks that the
// migration has landed: no NVLink pipe is still busy.
type dispatchProbe struct {
	retrieval.Backend
	t      *testing.T
	calls  []int          // dispatches each GPU has run
	emb    []sim.Duration // each dispatch's EMB span
	sys    []*retrieval.System
	ran    []*retrieval.BatchData
	moved  float64 // migrated bytes as of the last dispatch
	epochs int     // dispatches that opened after a migration
}

func (d *dispatchProbe) RunBatch(s *retrieval.System, p *sim.Proc, g int, bd *retrieval.BatchData, bk *trace.Breakdown) {
	if d.calls == nil {
		d.calls = make([]int, s.Cfg.GPUs)
	}
	i := d.calls[g]
	d.calls[g]++
	if i == len(d.emb) {
		d.emb = append(d.emb, 0)
		d.sys = append(d.sys, s)
		d.ran = append(d.ran, bd)
		if _, moved := s.Migration(); moved > d.moved {
			d.moved = moved
			d.epochs++
			for src := 0; src < s.Cfg.GPUs; src++ {
				for dst := 0; dst < s.Cfg.GPUs; dst++ {
					if src == dst {
						continue
					}
					if busy := s.Fab.Pipe(src, dst).BusyUntil(); busy > p.Now() {
						d.t.Errorf("dispatch %d started at %g, pipe %d->%d busy with migration until %g", i, p.Now(), src, dst, busy)
					}
				}
			}
		}
	}
	start := p.Now()
	d.Backend.RunBatch(s, p, g, bd, bk)
	d.emb[i] = max(d.emb[i], p.Now()-start)
}

// TestServingPipelinedComposesFaultsAndPlacement serves a saturating stream
// at depth 2 with adaptive placement, healthy and with a straggler window on
// dispatch 5. Every exchange runs in lockstep, so the straggler lengthens
// dispatch 5's EMB and no other dispatch's, every dispatch that opens a
// rebalance epoch starts after its migration has landed, and every
// dispatch's EMB output equals the serial reference.
func TestServingPipelinedComposesFaultsAndPlacement(t *testing.T) {
	const k = 5
	base := retrieval.TestScaleConfig(2)
	base.Rows = 16384 // a migration outlasts the kernel launch ahead of RunBatch
	base.PerFeatureMaxPooling = []int{12, 8, 3, 3, 3, 3}
	base.Distribution = workload.Zipf
	base.ZipfExponent = 1.2
	base.AdaptivePlacement = true
	base.RebalanceEvery = 4
	base.PipelineDepth = 2
	cfg := serveTestServeConfig()
	cfg.Rate = 20000 // saturate: every dispatch but the last takes a full batch
	cfg.QueueCap = 4096
	run := func(faults *fault.Schedule) *dispatchProbe {
		hw := retrieval.DefaultHardware()
		hw.Faults = faults
		probe := &dispatchProbe{Backend: &retrieval.PGASFused{}, t: t}
		res := runOnceHW(t, base, hw, cfg, probe)
		if res.Dispatches < 8 || len(probe.emb) != res.Dispatches {
			t.Fatalf("%d dispatches, %d probed; the session never crossed a rebalance boundary twice",
				res.Dispatches, len(probe.emb))
		}
		if res.Rebalances == 0 || probe.epochs == 0 {
			t.Fatal("no dispatch opened an epoch that migrated bytes")
		}
		for i, bd := range probe.ran {
			want, err := retrieval.Reference(probe.sys[i], bd.Sparse)
			if err != nil {
				t.Fatal(err)
			}
			for g := range want {
				if !tensor.Equal(bd.Final[g], want[g]) {
					t.Fatalf("dispatch %d, GPU %d differs from reference (max diff %g)",
						i, g, tensor.MaxAbsDiff(bd.Final[g], want[g]))
				}
			}
		}
		return probe
	}
	healthy := run(nil)
	t.Logf("%d dispatches, %d migrating epochs", len(healthy.emb), healthy.epochs)
	slow := run(&fault.Schedule{Events: []fault.Event{
		{Kind: fault.Straggler, FromBatch: k, ToBatch: k + 1, GPU: 1, Factor: 4},
	}})
	if len(slow.emb) != len(healthy.emb) {
		t.Fatalf("straggled session ran %d dispatches, healthy %d", len(slow.emb), len(healthy.emb))
	}
	for i := range healthy.emb {
		if a, b := slow.sys[i].Cfg.BatchSize, healthy.sys[i].Cfg.BatchSize; a != b {
			t.Fatalf("dispatch %d ran batch %d straggled, %d healthy; the sessions batch differently", i, a, b)
		}
		gap := math.Abs(slow.emb[i]-healthy.emb[i]) / healthy.emb[i]
		switch {
		case i == k && slow.emb[i] <= healthy.emb[i]:
			t.Errorf("straggled dispatch %d took %g s, healthy %g s", i, slow.emb[i], healthy.emb[i])
		case i != k && gap > 1e-9:
			t.Errorf("dispatch %d took %g s beside a straggler on dispatch %d, %g s healthy", i, slow.emb[i], k, healthy.emb[i])
		}
	}
}
