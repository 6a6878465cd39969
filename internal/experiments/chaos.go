package experiments

import (
	"context"
	"fmt"

	"pgasemb/internal/fault"
	"pgasemb/internal/metrics"
	"pgasemb/internal/retrieval"
	"pgasemb/internal/serve"
	"pgasemb/internal/sim"
)

// ChaosOptions tunes the resilience sweep: backend × fault profile × replica
// count, each point one full serving simulation under that fault schedule.
type ChaosOptions struct {
	// Sweep.Backends defaults to baseline and pgas-fused.
	Sweep
	// Profiles names the fault profiles to sweep (see fault.Profiles).
	// Default: none, flaky-link, straggler — the profiles that bite on a
	// single-node machine. NIC and proxy profiles need Nodes > 1 to have any
	// effect.
	Profiles []string
	// Replicas are the shard replication factors to sweep (default {1, 2}).
	Replicas []int
	// GPUs sizes the machine (default 4). Ignored when Base is set.
	GPUs int
	// Nodes composes the machine from NVLink islands joined by the NIC
	// fabric (0 means 1, a single node). Ignored when HW is set.
	Nodes int
	// Rate is the arrival rate in requests/second (default 4000).
	Rate float64
	// Duration is each point's arrival window (default 1 simulated second).
	Duration sim.Duration
	// Base overrides the serving workload configuration (default
	// retrieval.ServingScaleConfig(GPUs)); its Replicas field is overwritten
	// by the sweep. Replication requires Dedup and AdaptivePlacement off.
	Base *retrieval.Config
	// HW selects the hardware model (nil = the calibrated defaults on Nodes
	// nodes); its Faults field is overwritten by the sweep.
	HW *retrieval.HardwareParams
	// Serve carries the batching knobs and the degraded-serving policy; Rate
	// and Duration are overwritten by the sweep. A zero-valued Degrade
	// selects DefaultDegradePolicy so the sweep exercises the degradation
	// machinery; pass a policy with only QueueTimeout < 0 semantics via the
	// serve package directly if a truly inert policy is wanted.
	Serve serve.Config
}

// DefaultDegradePolicy is the degraded-serving policy the chaos sweep applies
// when none is given: fail queue heads older than 250ms (above the healthy
// tail of the default serving workload, so an unfaulted run rejects
// nothing), shed arrivals at 60% queue depth while a fault window is active,
// and freeze the hot-row caches during degraded dispatches.
func DefaultDegradePolicy() serve.DegradePolicy {
	return serve.DegradePolicy{
		QueueTimeout:    250 * sim.Millisecond,
		ShedAt:          0.6,
		StaleCacheServe: true,
	}
}

// ChaosPoint is one (backend, fault profile, replica count) serving run.
type ChaosPoint struct {
	Backend  string
	Profile  string
	Replicas int

	Offered   int
	Completed int
	Dropped   int // queue-full drops
	// Availability is Completed/Offered — the headline resilience number.
	Availability float64
	// Resilience carries the shed/reject counts and the proxy layer's
	// drop/retry volume.
	Resilience metrics.RetryCounters

	P50     sim.Duration
	P99     sim.Duration
	Goodput float64
}

// ChaosResult is the full sweep, in backend-major,
// profile-then-replicas order — deterministic for any Parallel.
type ChaosResult struct {
	Profiles []string
	Replicas []int
	Points   []ChaosPoint
}

// RunChaos executes the resilience sweep. Every grid point owns its server,
// so points are independent and dispatch freely onto the worker pool;
// results land in an index-addressed slice, byte-identical at any
// parallelism. It returns early when ctx is done.
func RunChaos(ctx context.Context, opts ChaosOptions) (*ChaosResult, error) {
	profiles := orList(opts.Profiles, []string{"none", "flaky-link", "straggler"})
	replicas := orList(opts.Replicas, []int{1, 2})
	backends := orList(opts.Backends, []retrieval.Backend{&retrieval.Baseline{}, &retrieval.PGASFused{}})
	base := servingBase(opts.Base, opts.GPUs)
	hw := hardware(opts.HW, opts.Nodes)
	for _, r := range replicas {
		if r < 1 {
			return nil, fmt.Errorf("experiments: chaos sweep replica count %d must be >= 1", r)
		}
	}
	res := &ChaosResult{Profiles: profiles, Replicas: replicas}
	n := len(backends) * len(profiles) * len(replicas)
	points, err := runJobs(ctx, opts.Sweep, "chaos", n, func(i int) (ChaosPoint, error) {
		ri := i % len(replicas)
		pi := i / len(replicas) % len(profiles)
		bi := i / (len(replicas) * len(profiles))
		backend := backends[bi]
		profile := profiles[pi]

		cfg := base
		cfg.Replicas = replicas[ri]
		phw := hw
		fail := func(err error) (ChaosPoint, error) {
			return ChaosPoint{}, fmt.Errorf("experiments: chaos, %s profile %s replicas %d: %w",
				backend.Name(), profile, cfg.Replicas, err)
		}
		sched, err := fault.Profile(profile, cfg.Seed)
		if err != nil {
			return fail(err)
		}
		phw.Faults = sched
		scfg := opts.Serve
		scfg.Rate = orDefault(opts.Rate, 4000)
		scfg.Duration = orDefault(opts.Duration, 1*sim.Second)
		if scfg.Degrade == (serve.DegradePolicy{}) {
			scfg.Degrade = DefaultDegradePolicy()
		}
		srv, err := serve.NewServer(cfg, phw, backend, scfg)
		if err != nil {
			return fail(err)
		}
		r, err := srv.RunContext(ctx)
		if err != nil {
			return fail(err)
		}
		return ChaosPoint{
			Backend:      r.Backend,
			Profile:      profile,
			Replicas:     cfg.Replicas,
			Offered:      r.Offered,
			Completed:    r.Completed,
			Dropped:      r.Dropped,
			Availability: r.Availability(),
			Resilience:   r.Resilience,
			P50:          r.Percentile(50),
			P99:          r.Percentile(99),
			Goodput:      r.Goodput(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	res.Points = points
	return res, nil
}

// Table renders the sweep.
func (r *ChaosResult) Table() *Table {
	t := &Table{
		Title: "Chaos: availability and tail latency under injected faults",
		Headers: []string{"backend", "profile", "replicas", "avail",
			"p50_ms", "p99_ms", "goodput_rps", "shed", "rejected", "dropped",
			"proxy_drops", "proxy_retries"},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{
			p.Backend,
			p.Profile,
			fmt.Sprintf("%d", p.Replicas),
			fmt.Sprintf("%.3f", p.Availability),
			fmt.Sprintf("%.3f", float64(p.P50)/float64(sim.Millisecond)),
			fmt.Sprintf("%.3f", float64(p.P99)/float64(sim.Millisecond)),
			fmt.Sprintf("%.1f", p.Goodput),
			fmt.Sprintf("%d", p.Resilience.Shed),
			fmt.Sprintf("%d", p.Resilience.Rejected),
			fmt.Sprintf("%d", p.Dropped),
			fmt.Sprintf("%d", p.Resilience.Drops),
			fmt.Sprintf("%d", p.Resilience.Retries),
		})
	}
	return t
}
