package experiments

import (
	"fmt"

	"pgasemb/internal/fault"
	"pgasemb/internal/metrics"
	"pgasemb/internal/retrieval"
	"pgasemb/internal/serve"
	"pgasemb/internal/sim"
)

// The resilience sweep: backend × fault profile × replica count, each
// point one full serving simulation under that fault schedule.

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

// chaosSweep declares the resilience sweep over base on hw, whose Faults
// the profiles replace: backend-major, then profile, then replica count.
// Every point serves with scfg (Rate and Duration included); a zero
// Degrade selects DefaultDegradePolicy, so the sweep exercises the
// degradation machinery. The NIC and proxy profiles need a multi-node hw to
// have any effect. Replication requires Dedup and AdaptivePlacement off in
// base.
func chaosSweep(profiles []string, replicas []int, base retrieval.Config, hw retrieval.HardwareParams,
	scfg serve.Config, backends []retrieval.Backend) (sweep[*ChaosResult], error) {
	if scfg.Degrade == (serve.DegradePolicy{}) {
		scfg.Degrade = DefaultDegradePolicy()
	}
	var pts []point
	for _, b := range backends {
		for _, profile := range profiles {
			for _, r := range replicas {
				if r < 1 {
					return sweep[*ChaosResult]{}, fmt.Errorf("replica count %d must be >= 1", r)
				}
				cfg := base
				cfg.Replicas = r
				sched, err := fault.Profile(profile, cfg.Seed)
				if err != nil {
					return sweep[*ChaosResult]{}, err
				}
				phw := hw
				phw.Faults = sched
				pts = append(pts, point{kind: serveRun, cfg: cfg, hw: phw, backend: b, serve: scfg})
			}
		}
	}
	return sweep[*ChaosResult]{pts, func(outs []outcome) *ChaosResult {
		res := &ChaosResult{Profiles: profiles, Replicas: replicas}
		for i, o := range outs {
			r := o.serve
			res.Points = append(res.Points, ChaosPoint{
				Backend:      r.Backend,
				Profile:      profiles[i/len(replicas)%len(profiles)],
				Replicas:     pts[i].cfg.Replicas,
				Offered:      r.Offered,
				Completed:    r.Completed,
				Dropped:      r.Dropped,
				Availability: r.Availability(),
				Resilience:   r.Resilience,
				P50:          r.Percentile(50),
				P99:          r.Percentile(99),
				Goodput:      r.Goodput(),
			})
		}
		return res
	}}, nil
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
