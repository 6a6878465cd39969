package main

import (
	"fmt"
	"math"
	"strings"

	"pgasemb/internal/dlrm"
	"pgasemb/internal/metrics"
	"pgasemb/internal/retrieval"
	"pgasemb/internal/serve"
	"pgasemb/internal/sim"
	"pgasemb/internal/workload"
)

// workloadNames lists the workloads in the order -workload all runs them.
var workloadNames = []string{"infer-weak4", "infer-cluster16", "serve-zipf", "infer-placement"}

// paperSpeedup is the paper's Table 1 EMB speedup of the PGAS backend over
// the collective baseline at 4 GPUs, the one reference point infer-weak4
// reproduces.
const paperSpeedup = 1.87

// benchWorkload is one input set of the benchmark and the unit of work each
// measured pass repeats. Every entry point it calls is a layer's public one.
type benchWorkload interface {
	// verify runs the workload's functional twin: the same backends and
	// knobs at test scale, checked against the serial reference.
	verify(corrupt bool) error
	// setup builds what every pass reuses; setup_s times it.
	setup(tr *tracer) error
	// pass runs the measured unit of work once on the same inputs.
	pass(tr *tracer) (passOut, error)
	// probe runs the traced run's host-time probes. It may add simulated
	// metrics only a probe computes, and returns lines to print beside them.
	probe(tr *tracer, sim simMetrics) ([]line, error)
}

// passOut is what one pass reports.
type passOut struct {
	ops     int // operations attempted: batches, or offered requests when serving
	refused int // offered requests the server refused
	sim     simMetrics
}

// line is one printed measurement outside the declared metric lists.
type line struct {
	name  string
	value float64
	unit  string
}

// newWorkload returns the named workload with its inputs drawn from seed.
// smoke shrinks every shape so tests run in seconds; names and metrics stay.
func newWorkload(name string, seed uint64, smoke bool) (benchWorkload, error) {
	w, err := newFullWorkload(name, seed)
	if err != nil || !smoke {
		return w, err
	}
	// Each loop probe keeps running, at two iterations.
	smokeLoops := func(l loopCounts) loopCounts { return loopCounts{compile: min(l.compile, 2), batch: 2} }
	switch w := w.(type) {
	case *inferWorkload:
		w.cfg.TotalTables, w.cfg.BatchSize, w.cfg.Batches = 2*w.cfg.GPUs, 256, 2
		w.loops = smokeLoops(w.loops)
	case *serveWorkload:
		w.cfg.TotalTables, w.cfg.Rows, w.cfg.BatchSize = 8, 4096, 64
		w.rate, w.duration, w.ladder, w.maxProbes = 2000, 0.05*sim.Second, []float64{1000, 2000, 4000}, 2
		w.loops = smokeLoops(w.loops)
	case *placementWorkload:
		w.cfg.Rows, w.cfg.BatchSize, w.cfg.Batches = 4096, 256, 16
		w.loops = smokeLoops(w.loops)
	}
	return w, nil
}

func newFullWorkload(name string, seed uint64) (benchWorkload, error) {
	switch name {
	case "infer-weak4":
		cfg := retrieval.WeakScalingConfig(4)
		cfg.Batches = 5
		cfg.Seed = seed
		// No compile probe: the timing path draws summaries here, and
		// compiling from a materialised batch would need 3.7 GB.
		return &inferWorkload{cfg: cfg, hw: retrieval.DefaultHardware(),
			backends: []retrieval.Backend{&retrieval.Baseline{}, &retrieval.PGASFused{}},
			loops:    loopCounts{batch: 32}}, nil
	case "infer-cluster16":
		cfg := retrieval.MultiNodeConfig(4, 4)
		cfg.WirePrecision = retrieval.FP16
		cfg.PipelineDepth = 2
		cfg.Batches = 2
		cfg.Seed = seed
		return &inferWorkload{cfg: cfg, hw: retrieval.ClusterHardware(4),
			backends: []retrieval.Backend{&retrieval.PGASFused{}},
			loops:    loopCounts{compile: 4, batch: 256}}, nil
	case "serve-zipf":
		cfg := retrieval.ServingScaleConfig(4)
		cfg.Dedup = true
		cfg.CacheFraction = 0.01
		cfg.Seed = seed
		w := &serveWorkload{cfg: cfg, hw: retrieval.DefaultHardware(),
			rate: 8000, duration: 0.5 * sim.Second, limit: 100 * sim.Millisecond, maxProbes: 5,
			loops: loopCounts{compile: 8, batch: 4096}}
		for r := 8000.0; r <= 40000; r += 2000 {
			w.ladder = append(w.ladder, r)
		}
		return w, nil
	case "infer-placement":
		cfg := placementConfig()
		cfg.Batches = 96
		cfg.Seed = seed
		return &placementWorkload{cfg: cfg, hw: retrieval.DefaultHardware(),
			loops: loopCounts{compile: 32, batch: 2048}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want %s or all)", name, strings.Join(workloadNames, ", "))
}

// placementConfig is the graded-skew serving configuration of the placement
// experiments: tables 0-1 pool up to 64 rows, 2-3 up to 16, the tail up to
// 4, so the static plan piles every heavy table onto GPU 0. Zipf(1.2) rows
// with dedup, adaptive placement every 8 batches and two hot-table mirrors.
func placementConfig() retrieval.Config {
	cfg := retrieval.ServingScaleConfig(4)
	pool := make([]int, cfg.TotalTables)
	for f := range pool {
		pool[f] = 4
	}
	pool[0], pool[1] = 64, 64
	pool[2], pool[3] = 16, 16
	cfg.MinPooling, cfg.MaxPooling = 1, 4
	cfg.PerFeatureMaxPooling = pool
	cfg.Distribution = workload.Zipf
	cfg.ZipfExponent = 1.2
	cfg.Dedup = true
	cfg.AdaptivePlacement = true
	cfg.RebalanceEvery = 8
	cfg.HotTables = 2
	return cfg
}

// generatorConfig is the workload-generator configuration a retrieval run of
// cfg draws its batches from, for timing the generator on its own.
func generatorConfig(cfg retrieval.Config) workload.Config {
	return workload.Config{
		NumFeatures:          cfg.TotalTables,
		BatchSize:            cfg.BatchSize,
		MinPooling:           cfg.MinPooling,
		MaxPooling:           cfg.MaxPooling,
		PerFeatureMaxPooling: cfg.PerFeatureMaxPooling,
		NullProbability:      cfg.NullProbability,
		IndexSpace:           int64(cfg.Rows),
		Distribution:         cfg.Distribution,
		ZipfExponent:         cfg.ZipfExponent,
		HotSetDriftEvery:     cfg.HotSetDriftEvery,
		NumDense:             13,
		Seed:                 cfg.Seed,
	}
}

// inferWorkload is offline DLRM inference: each pass runs the pipeline once
// per backend over the same batches. The last backend is the accelerated
// one; a baseline before it adds the paper's speedup comparison.
type inferWorkload struct {
	cfg      retrieval.Config
	hw       retrieval.HardwareParams
	backends []retrieval.Backend
	loops    loopCounts

	spec  *retrieval.SystemSpec
	model *dlrm.Model
}

func (w *inferWorkload) verify(corrupt bool) error {
	return verifyTwin(w.cfg, w.hw, w.backends, true, corrupt)
}

func (w *inferWorkload) setup(tr *tracer) error {
	h := tr.begin("retrieval.NewSystemSpec")
	spec, err := retrieval.NewSystemSpec(w.cfg, w.hw)
	tr.end(h, nil)
	if err != nil {
		return err
	}
	h = tr.begin("dlrm.NewModel")
	model, err := dlrm.NewModel(dlrm.DefaultModelConfig(w.cfg.TotalTables, w.cfg.Dim), w.cfg.Seed)
	tr.end(h, nil)
	if err != nil {
		return err
	}
	w.spec, w.model = spec, model
	return nil
}

func (w *inferWorkload) pass(tr *tracer) (passOut, error) {
	out := passOut{sim: newSimMetrics()}
	m := out.sim
	perBatch := func(seconds float64) float64 { return seconds * 1e3 / float64(w.cfg.Batches) }
	var baseEMB float64
	for _, be := range w.backends {
		h := tr.begin("dlrm.NewPipelineRun")
		pl, err := dlrm.NewPipelineRun(w.spec, be, w.model, w.cfg.Seed)
		tr.end(h, nil)
		if err != nil {
			return out, err
		}
		h = tr.begin("dlrm.Pipeline.Run")
		res, err := pl.Run()
		tr.end(h, nil)
		if err != nil {
			return out, err
		}
		out.ops += w.cfg.Batches
		if _, ok := be.(*retrieval.Baseline); ok {
			baseEMB = res.EMBTime
			m["baseline.emb_ms"] = perBatch(res.EMBTime)
			m["baseline.computation_ms"] = perBatch(res.EMBBreakdown.Get(retrieval.CompComputation))
			m["baseline.communication_ms"] = perBatch(res.EMBBreakdown.Get(retrieval.CompComm))
			m["baseline.sync_unpack_ms"] = perBatch(res.EMBBreakdown.Get(retrieval.CompSyncUnpack))
			m["collective.mb_per_batch"] = pl.Sys.Comm.Volume().Total() / 1e6 / float64(w.cfg.Batches)
			continue
		}
		m["sim_ms"] = perBatch(res.TotalTime)
		m["retrieval.emb_ms"] = perBatch(res.EMBTime)
		m["retrieval.fused_kernel_ms"] = perBatch(res.EMBBreakdown.Get(retrieval.CompFused))
		m["retrieval.sync_unpack_ms"] = perBatch(res.EMBBreakdown.Get(retrieval.CompSyncUnpack))
		m["dlrm.dense_ms"] = perBatch(res.DenseTime)
		m["dlrm.emb_stall_ms"] = perBatch(res.EMBStall)
		systemMetrics(m, pl.Sys, w.cfg.Batches)
		if baseEMB > 0 {
			speedup := baseEMB / res.EMBTime
			m["retrieval.emb_speedup"] = speedup
			m["paper_err_pct"] = math.Abs(speedup-paperSpeedup) / paperSpeedup * 100
		}
	}
	return out, nil
}

func (w *inferWorkload) probe(tr *tracer, _ simMetrics) ([]line, error) {
	return nil, layerProbes(tr, w.spec, w.backends[len(w.backends)-1], w.loops)
}

// serveWorkload is online serving: open-loop Poisson arrivals at a fixed
// rate, dynamically batched into pipeline dispatches through a CLOCK cache.
// Each pass serves on a fresh server, so caches start empty every time.
type serveWorkload struct {
	cfg       retrieval.Config
	hw        retrieval.HardwareParams
	rate      float64      // offered load of the measured point, requests/s
	duration  sim.Duration // arrival window of every serving run
	limit     sim.Duration // p99 limit of the rate search
	ladder    []float64    // ascending rates the rate search chooses from
	maxProbes int          // serving runs the rate search may spend
	loops     loopCounts
}

func (w *serveWorkload) verify(corrupt bool) error {
	return verifyTwin(w.cfg, w.hw, []retrieval.Backend{&retrieval.PGASFused{}}, false, corrupt)
}

func (w *serveWorkload) newServer(tr *tracer, rate float64) (*serve.Server, error) {
	h := tr.begin("serve.NewServer")
	defer tr.end(h, nil)
	return serve.NewServer(w.cfg, w.hw, &retrieval.PGASFused{},
		serve.Config{Rate: rate, Duration: w.duration, Seed: w.cfg.Seed})
}

func (w *serveWorkload) setup(tr *tracer) error {
	_, err := w.newServer(tr, w.rate)
	return err
}

// serveAt runs one serving session at rate on a fresh server.
func (w *serveWorkload) serveAt(tr *tracer, rate float64) (*serve.Result, error) {
	srv, err := w.newServer(tr, rate)
	if err != nil {
		return nil, err
	}
	h := tr.begin("serve.Server.Run")
	res, err := srv.Run()
	if err != nil {
		tr.end(h, nil)
		return nil, err
	}
	tr.end(h, map[string]float64{"dispatches": float64(res.Dispatches)})
	return res, nil
}

// tail returns a serving run's p-th latency percentile in ms, over every
// offered request with refused ones counted as +Inf.
func tail(res *serve.Result, p float64) float64 {
	return latencyPercentile(res.Latencies, res.Offered-res.Completed, p) * 1e3
}

func (w *serveWorkload) pass(tr *tracer) (passOut, error) {
	out := passOut{sim: newSimMetrics()}
	res, err := w.serveAt(tr, w.rate)
	if err != nil {
		return out, err
	}
	m := out.sim
	out.ops = res.Offered
	out.refused = res.Offered - res.Completed
	m["sim_ms"] = tail(res, 99)
	m["serve.p50_ms"] = tail(res, 50)
	m["serve.p99_ms"] = m["sim_ms"]
	m["serve.requests"] = float64(res.Offered)
	m["serve.dispatches"] = float64(res.Dispatches)
	m["serve.mean_batch"] = ratio(float64(res.Completed), float64(res.Dispatches))
	m["serve.padded_frac"] = ratio(float64(res.PaddedSamples), float64(res.PaddedSamples+res.Completed))
	m["cache.hit_rate"] = res.HitRate()
	m["cache.insertions"] = float64(res.CacheStats.Insertions)
	m["cache.evictions"] = float64(res.CacheStats.Evictions)
	m["dedup.unique_frac"] = res.DedupStats.UniqueFraction()
	m["dedup.wire_saved_mb"] = ratio(res.DedupStats.WireSavedBytes/1e6, float64(res.Dispatches))
	return out, nil
}

// probe searches the rate ladder for the highest rate whose p99 stays within
// the limit with nothing refused, assuming higher rates never do better,
// then times the serving layer's per-dispatch set-up and the retrieval
// layers on the largest dispatch shape.
func (w *serveWorkload) probe(tr *tracer, m simMetrics) ([]line, error) {
	var lines []line
	h := tr.begin("probe.rate_search")
	lo, hi := -1, len(w.ladder) // ladder[lo] meets the limit, ladder[hi] does not
	for probes := 0; hi-lo > 1 && probes < w.maxProbes; probes++ {
		mid := (lo + hi) / 2
		res, err := w.serveAt(tr, w.ladder[mid])
		if err != nil {
			tr.end(h, nil)
			return nil, err
		}
		p99 := tail(res, 99)
		lines = append(lines, line{fmt.Sprintf("serve.p99_ms.r%.0f", w.ladder[mid]), p99, "ms"})
		if res.Offered == res.Completed && p99 <= w.limit*1e3 {
			lo = mid
		} else {
			hi = mid
		}
	}
	tr.end(h, nil)
	if lo >= 0 {
		m["serve.max_rate_rps"] = w.ladder[lo]
	}

	// The largest dispatch shape, as the server builds it.
	cfg := w.cfg
	cfg.Batches = 1
	h = tr.begin("retrieval.NewSystemSpec")
	spec, err := retrieval.NewSystemSpec(cfg, w.hw)
	tr.end(h, nil)
	if err != nil {
		return nil, err
	}
	h = tr.begin("dlrm.NewModel")
	model, err := dlrm.NewModel(dlrm.DefaultModelConfig(cfg.TotalTables, cfg.Dim), cfg.Seed)
	tr.end(h, nil)
	if err != nil {
		return nil, err
	}
	h = tr.begin("probe.run_setup")
	for i := 0; i < 8; i++ {
		hc := tr.begin("dlrm.NewPipelineRun")
		a0 := mallocs()
		_, err := dlrm.NewPipelineRun(spec, &retrieval.PGASFused{}, model, cfg.Seed+uint64(i))
		allocs := mallocs() - a0
		tr.end(hc, map[string]float64{"allocs": float64(allocs)})
		if err != nil {
			tr.end(h, nil)
			return nil, err
		}
	}
	tr.end(h, nil)
	return lines, layerProbes(tr, spec, &retrieval.PGASFused{}, w.loops)
}

// placementWorkload is EMB-only retrieval under adaptive placement. It runs
// through System.Run, the only entry point that executes rebalance epochs.
type placementWorkload struct {
	cfg   retrieval.Config
	hw    retrieval.HardwareParams
	loops loopCounts
	spec  *retrieval.SystemSpec
}

func (w *placementWorkload) verify(corrupt bool) error {
	return verifyTwin(w.cfg, w.hw, []retrieval.Backend{&retrieval.PGASFused{}}, false, corrupt)
}

func (w *placementWorkload) newRun(tr *tracer) (*retrieval.System, error) {
	h := tr.begin("retrieval.SystemSpec.NewRunWithSeed")
	defer tr.end(h, nil)
	return w.spec.NewRunWithSeed(w.cfg.Seed)
}

// setup builds the spec and wires one run from it, what a caller of
// System.Run pays before the first batch.
func (w *placementWorkload) setup(tr *tracer) error {
	h := tr.begin("retrieval.NewSystemSpec")
	spec, err := retrieval.NewSystemSpec(w.cfg, w.hw)
	tr.end(h, nil)
	if err != nil {
		return err
	}
	w.spec = spec
	_, err = w.newRun(tr)
	return err
}

func (w *placementWorkload) pass(tr *tracer) (passOut, error) {
	out := passOut{sim: newSimMetrics()}
	s, err := w.newRun(tr)
	if err != nil {
		return out, err
	}
	h := tr.begin("retrieval.System.Run")
	res, err := s.Run(&retrieval.PGASFused{})
	tr.end(h, nil)
	if err != nil {
		return out, err
	}
	m := out.sim
	out.ops = w.cfg.Batches
	perBatch := func(seconds float64) float64 { return seconds * 1e3 / float64(w.cfg.Batches) }
	m["sim_ms"] = perBatch(res.TotalTime)
	m["retrieval.emb_ms"] = m["sim_ms"]
	m["retrieval.fused_kernel_ms"] = perBatch(res.Breakdown.Get(retrieval.CompFused))
	m["retrieval.sync_unpack_ms"] = perBatch(res.Breakdown.Get(retrieval.CompSyncUnpack))
	systemMetrics(m, s, w.cfg.Batches)
	keys := make([]float64, len(res.OwnerKeys))
	for g, k := range res.OwnerKeys {
		keys[g] = float64(k)
	}
	m["placement.imbalance"] = metrics.Imbalance(keys)
	m["placement.migrated_mb"] = res.MigratedBytes / 1e6
	m["placement.rebalances"] = float64(res.Rebalances)
	return out, nil
}

func (w *placementWorkload) probe(tr *tracer, _ simMetrics) ([]line, error) {
	return nil, layerProbes(tr, w.spec, &retrieval.PGASFused{}, w.loops)
}

// systemMetrics reads the counters a finished run's layers export, per
// batch where they accumulate.
func systemMetrics(m simMetrics, s *retrieval.System, batches int) {
	n := float64(batches)
	m["sim.events_per_batch"] = float64(s.Env.EventsFired()) / n

	topo := s.Fab.Topology()
	var pipeBytes []float64
	var transfers int64
	for a := 0; a < s.Cfg.GPUs; a++ {
		for b := 0; b < s.Cfg.GPUs; b++ {
			if a == b || topo.Links(a, b) <= 0 {
				continue
			}
			p := s.Fab.Pipe(a, b)
			pipeBytes = append(pipeBytes, p.TotalBytes())
			transfers += p.Transfers()
		}
	}
	m["nvlink.mb_per_batch"] = s.Fab.TotalBytes() / 1e6 / n
	m["nvlink.transfers_per_batch"] = float64(transfers) / n
	m["nvlink.pair_imbalance"] = metrics.Imbalance(pipeBytes)

	var puts int64
	var payload, wire float64
	for g := 0; g < s.PGAS.NumPEs(); g++ {
		pe := s.PGAS.PE(g)
		puts += pe.Puts()
		payload += pe.PayloadBytes()
		wire += pe.WireBytes()
	}
	m["pgas.puts_per_batch"] = float64(puts) / n
	m["pgas.wire_efficiency"] = ratio(payload, wire)

	if s.Net != nil {
		m["fabric.nic_messages_per_batch"] = float64(s.Net.Messages()) / n
		m["fabric.nic_wire_mb_per_batch"] = s.Net.WireBytes() / 1e6 / n
		m["fabric.nic_efficiency"] = ratio(s.Net.PayloadBytes(), s.Net.WireBytes())
	}
	d := s.DedupStats()
	m["dedup.unique_frac"] = d.UniqueFraction()
	m["dedup.wire_saved_mb"] = d.WireSavedBytes / 1e6 / n
}
