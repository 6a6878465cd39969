// Package pgasemb is the public API of the PGAS embedding-retrieval
// reproduction: a functional + timing-accurate simulation of multi-GPU
// DLRM embedding retrieval that compares NCCL-style collective
// communication against PGAS-style one-sided small messages, reproducing
// the evaluation of "Accelerating Multi-GPU Embedding Retrieval with
// PGAS-Style Communication for Deep Learning Recommendation Systems"
// (Chen, Buluç, Yelick, Owens — SC 2024).
//
// Quick start:
//
//	cfg := pgasemb.WeakScalingConfig(4)
//	sys, err := pgasemb.NewSystem(cfg, pgasemb.DefaultHardware())
//	if err != nil { ... }
//	res, err := sys.Run(pgasemb.NewPGASFused())
//	fmt.Println(res.TotalTime)
//
// The package re-exports the stable surface of the internal packages; see
// DESIGN.md for the architecture and EXPERIMENTS.md for the
// paper-vs-measured comparison.
package pgasemb

import (
	"context"

	"pgasemb/internal/dlrm"
	"pgasemb/internal/experiments"
	"pgasemb/internal/fault"
	"pgasemb/internal/retrieval"
	"pgasemb/internal/serve"
)

// Core experiment types.
type (
	// Config describes one retrieval experiment (GPUs, tables, batch,
	// pooling, batches). See WeakScalingConfig / StrongScalingConfig for
	// the paper's setups.
	Config = retrieval.Config
	// HardwareParams bundles the GPU, NVLink and collective models.
	HardwareParams = retrieval.HardwareParams
	// SystemSpec is the immutable, validated description of a simulated
	// machine; any number of independent Systems (runs) can be created
	// from one spec concurrently.
	SystemSpec = retrieval.SystemSpec
	// System is one run of a wired simulated machine ready to execute
	// backends.
	System = retrieval.System
	// Result is one run's timing (and, in functional mode, outputs).
	Result = retrieval.Result
	// Backend is an EMB-layer retrieval implementation.
	Backend = retrieval.Backend
	// AggregatorConfig enables the future-work aggregated-store variant.
	AggregatorConfig = retrieval.AggregatorConfig
)

// DLRM pipeline types.
type (
	// Pipeline runs full DLRM inference around a retrieval backend.
	Pipeline = dlrm.Pipeline
	// PipelineResult is a timed inference run's summary.
	PipelineResult = dlrm.PipelineResult
)

// Experiment harness types.
type (
	// ScalingKind selects the weak- or strong-scaling experiment.
	ScalingKind = experiments.ScalingKind
	// ScalingResult is a sweep over GPU counts with both backends.
	ScalingResult = experiments.ScalingResult
	// CommVolumeResult is the Figures 7/10 volume-over-time profile.
	CommVolumeResult = experiments.CommVolumeResult
	// ExperimentOptions tunes a harness run.
	ExperimentOptions = experiments.Options
	// Sweep is what every sweep's options share: its backends, its worker
	// count and its timing recorder.
	Sweep = experiments.Sweep
	// RenderedTable is an ASCII/CSV-renderable experiment artifact.
	RenderedTable = experiments.Table
)

// Experiment kinds.
const (
	WeakScaling   = experiments.WeakScaling
	StrongScaling = experiments.StrongScaling
)

// Component names appearing in result breakdowns.
const (
	CompComputation = retrieval.CompComputation
	CompComm        = retrieval.CompComm
	CompSyncUnpack  = retrieval.CompSyncUnpack
)

// DefaultHardware returns the calibrated DGX Station V100 parameter set: one
// NVLink node, the same machine as ClusterHardware(1).
func DefaultHardware() HardwareParams { return retrieval.DefaultHardware() }

// ClusterHardware returns the default hardware composed into `nodes` NVLink
// nodes joined by modeled NICs: inter-node traffic rides the fabric
// interconnect (contention, message chunking, launch overhead), baseline
// collectives go hierarchical, and PGAS one-sided stores to remote nodes
// coalesce through per-GPU proxies. The experiment's GPU count must be
// divisible by `nodes`; a count that is not is rejected with a descriptive
// error by NewSystemSpec / NewSystem.
func ClusterHardware(nodes int) HardwareParams { return retrieval.ClusterHardware(nodes) }

// NewSystemSpec validates the configuration and hardware and returns the
// immutable spec from which runs are created.
func NewSystemSpec(cfg Config, hw HardwareParams) (*SystemSpec, error) {
	return retrieval.NewSystemSpec(cfg, hw)
}

// NewSystem wires a simulated machine for the configuration: shorthand for
// NewSystemSpec followed by SystemSpec.NewRun.
func NewSystem(cfg Config, hw HardwareParams) (*System, error) {
	return retrieval.NewSystem(cfg, hw)
}

// WeakScalingConfig returns the paper's §IV-A configuration (64 tables per
// GPU, batch 16384, pooling up to 128, 100 batches).
func WeakScalingConfig(gpus int) Config { return retrieval.WeakScalingConfig(gpus) }

// StrongScalingConfig returns the paper's §IV-B configuration (96 tables
// total, batch 16384, pooling up to 32, 100 batches).
func StrongScalingConfig(gpus int) Config { return retrieval.StrongScalingConfig(gpus) }

// TestScaleConfig returns a small functional configuration whose outputs
// are verified bit-exactly against a serial reference.
func TestScaleConfig(gpus int) Config { return retrieval.TestScaleConfig(gpus) }

// NewBaseline returns the NCCL-collective baseline backend.
func NewBaseline() Backend { return &retrieval.Baseline{} }

// NewPGASFused returns the paper's PGAS fused-kernel backend.
func NewPGASFused() Backend { return &retrieval.PGASFused{} }

// NewBackendByName constructs a registered backend by its registry name; an
// unknown name errors with the list of registered names.
func NewBackendByName(name string) (Backend, error) { return retrieval.NewBackendByName(name) }

// RegisteredBackends returns the names of all registered backends, sorted.
func RegisteredBackends() []string { return retrieval.RegisteredBackends() }

// NewUnpackOnlyAblation returns ablation A1: collective communication kept,
// unpack step eliminated (direct placement).
func NewUnpackOnlyAblation() Backend { return &retrieval.Baseline{DirectPlacement: true} }

// NewOverlapOnlyAblation returns ablation A2: one-sided overlapped stores
// into a staging layout, unpack step retained.
func NewOverlapOnlyAblation() Backend { return &retrieval.PGASFused{StageRemote: true} }

// NewAggregatedPGAS returns the future-work variant A3: one-sided stores
// batched through an asynchronous aggregator.
func NewAggregatedPGAS(cfg AggregatorConfig) Backend {
	return &retrieval.PGASFused{Aggregate: &cfg}
}

// SkewedPooling builds a heterogeneous per-feature pooling vector for
// Config.PerFeatureMaxPooling: hotFraction of the features get hotMax, the
// rest coldMax.
func SkewedPooling(totalTables int, hotFraction float64, hotMax, coldMax int) []int {
	return retrieval.SkewedPooling(totalTables, hotFraction, hotMax, coldMax)
}

// RunScaling executes the weak- or strong-scaling sweep (Tables 1/2,
// Figures 5/6/8/9). The sweep's runs dispatch onto a bounded worker pool
// (ExperimentOptions.Parallel) and stop early when ctx is cancelled, as do
// those of every other Run* sweep.
func RunScaling(ctx context.Context, kind ScalingKind, opts ExperimentOptions) (*ScalingResult, error) {
	return experiments.RunScaling(ctx, kind, opts)
}

// RunCommVolume profiles communication volume over time (Figures 7/10).
func RunCommVolume(ctx context.Context, kind ScalingKind, gpus, bins int, opts ExperimentOptions) (*CommVolumeResult, error) {
	return experiments.RunCommVolume(ctx, kind, gpus, bins, opts)
}

// Precision selects the wire transport format for embedding rows
// (Config.WirePrecision): fp32 passthrough, fp16 half floats, or int8 with a
// per-row absmax scale. Tables and pooled outputs stay fp32; only whole-row
// transfers over NVLink and the NIC are compressed.
type Precision = retrieval.Precision

// Wire precisions (Config.WirePrecision).
const (
	// WireFP16 ships rows as IEEE half floats: 2 bytes per element,
	// worst-case per-element error 2^-10 times the element magnitude.
	WireFP16 = retrieval.FP16
)

// ParsePrecision maps "fp32", "fp16" or "int8" (or "") to a Precision.
func ParsePrecision(s string) (Precision, error) { return retrieval.ParsePrecision(s) }

// Wire-precision sweep types.
type (
	// PrecisionOptions tunes the backend × dedup × precision sweep.
	PrecisionOptions = experiments.PrecisionOptions
	// PrecisionResult is the sweep's cell grid plus measured output errors.
	PrecisionResult = experiments.PrecisionResult
)

// RunPrecision executes the wire-precision sweep: every (backend, dedup,
// precision) cell is a timing run on the same seed, with communication
// volume, NIC traffic and measured worst-case output error alongside the
// speedups.
func RunPrecision(ctx context.Context, opts PrecisionOptions) (*PrecisionResult, error) {
	return experiments.RunPrecision(ctx, opts)
}

// Multi-node sweep types.
type (
	// MultiNodeOptions tunes the multi-node scaling sweep (node count,
	// GPUs per node, batch overrides, parallelism).
	MultiNodeOptions = experiments.MultiNodeOptions
	// MultiNodeResult is a sweep over node counts with both backends.
	MultiNodeResult = experiments.MultiNodeResult
)

// RunMultiNode executes the multi-node scaling sweep: both backends at every
// node count, with NIC-traffic accounting alongside the speedups.
func RunMultiNode(ctx context.Context, kind ScalingKind, opts MultiNodeOptions) (*MultiNodeResult, error) {
	return experiments.RunMultiNode(ctx, kind, opts)
}

// Scorecard renders the headline paper-vs-measured comparison.
func Scorecard(weak, strong *ScalingResult) *RenderedTable {
	return experiments.Scorecard(weak, strong)
}

// SpeedupStats summarises speedups across workload seeds.
type SpeedupStats = experiments.SpeedupStats

// RunScalingStats repeats the sweep across several workload seeds and
// reports per-point speedup statistics; it stops with ctx.Err() on
// cancellation.
func RunScalingStats(ctx context.Context, kind ScalingKind, seeds int, opts ExperimentOptions) ([]SpeedupStats, error) {
	return experiments.RunScalingStats(ctx, kind, seeds, opts)
}

// StatsTable renders speedup statistics.
func StatsTable(kind ScalingKind, stats []SpeedupStats) *RenderedTable {
	return experiments.StatsTable(kind, stats)
}

// AblationResult is one backend's runtime in the mechanism-isolation suite.
type AblationResult = experiments.AblationResult

// RunAblations executes the mechanism-isolation suite: baseline, each
// of the paper's two mechanisms alone, full PGAS, and aggregated PGAS; it
// stops with ctx.Err() on cancellation.
func RunAblations(ctx context.Context, gpus int, opts ExperimentOptions) ([]AblationResult, error) {
	return experiments.RunAblations(ctx, gpus, opts)
}

// PipelineDepthPoint is one (backend, depth) run of the inter-batch
// pipelining sweep.
type PipelineDepthPoint = experiments.PipelineDepthPoint

// RunPipelineDepth sweeps the inter-batch pipeline depth for the
// baseline and the accelerated backend on the weak-scaling DLRM workload; it
// stops with ctx.Err() on cancellation.
func RunPipelineDepth(ctx context.Context, gpus int, depths []int, opts ExperimentOptions) ([]PipelineDepthPoint, error) {
	return experiments.RunPipelineDepth(ctx, gpus, depths, opts)
}

// PipelineDepthTable renders the pipeline-depth sweep as a table.
func PipelineDepthTable(points []PipelineDepthPoint) *RenderedTable {
	return experiments.PipelineDepthTable(points)
}

// Bench records host-side wall-clock timing of experiment runs; attach one
// via ExperimentOptions.Bench and write its report with WriteJSON.
type Bench = experiments.Bench

// BenchReport is the machine-readable summary a Bench assembles.
type BenchReport = experiments.BenchReport

// NewBench returns an empty experiment-timing recorder.
func NewBench() *Bench { return experiments.NewBench() }

// AblationTable renders ablation results as a table.
func AblationTable(results []AblationResult) *RenderedTable {
	return experiments.AblationTable(results)
}

// NewPipeline wires a full DLRM inference pipeline around the given
// retrieval backend.
func NewPipeline(cfg Config, hw HardwareParams, backend Backend) (*Pipeline, error) {
	return dlrm.NewPipeline(cfg, hw, backend)
}

// Online serving types.
type (
	// ServeConfig tunes the serving layer: arrival process and rate,
	// dynamic-batching policy (MaxBatch, MaxWait), and queue capacity.
	ServeConfig = serve.Config
	// Server is an online serving setup: open-loop arrivals, admission
	// queue, dynamic batcher, and a persistent hot-row cache, dispatching
	// device batches through the DLRM pipeline.
	Server = serve.Server
	// Arrival selects the request arrival process.
	Arrival = serve.Arrival
)

// Arrival processes (ServeConfig.Arrival).
const (
	PoissonArrivals = serve.Poisson
	BurstyArrivals  = serve.Bursty
)

// NewServer validates and wires an online serving setup around the given
// base configuration and retrieval backend. Set Config.CacheFraction on the
// base to enable the hot-row cache.
func NewServer(base Config, hw HardwareParams, backend Backend, cfg ServeConfig) (*Server, error) {
	return serve.NewServer(base, hw, backend, cfg)
}

// Serving sweep types.
type (
	// ServingOptions tunes the rate × cache-fraction × backend sweep.
	ServingOptions = experiments.ServingOptions
	// ServingResult is the sweep's point grid.
	ServingResult = experiments.ServingResult
)

// RunServing executes the online-serving sweep: every (backend, arrival
// rate, cache fraction) point is a full serving simulation reporting tail
// latency, goodput, drops, and cache hit rate.
func RunServing(ctx context.Context, opts ServingOptions) (*ServingResult, error) {
	return experiments.RunServing(ctx, opts)
}

// Fault-injection and resilience types.
type (
	// FaultSchedule is a deterministic, batch-indexed fault schedule:
	// link/NIC bandwidth degradation, per-GPU stragglers and proxy delivery
	// drops, installed via HardwareParams.Faults.
	FaultSchedule = fault.Schedule
	// DegradePolicy decides what the serving layer sacrifices while the
	// machine is unhealthy (ServeConfig.Degrade).
	DegradePolicy = serve.DegradePolicy
	// ChaosOptions tunes the backend × fault-profile × replica-count sweep.
	ChaosOptions = experiments.ChaosOptions
	// ChaosResult is the chaos sweep's point grid.
	ChaosResult = experiments.ChaosResult
	// PlacementOptions tunes the placement-policy × backend × Zipf sweep.
	PlacementOptions = experiments.PlacementOptions
	// PlacementResult is the placement sweep's point grid.
	PlacementResult = experiments.PlacementResult
)

// FaultProfiles lists the named fault profiles, sorted.
func FaultProfiles() []string { return fault.Profiles() }

// FaultProfile builds the named canned fault schedule with the given seed.
func FaultProfile(name string, seed uint64) (*FaultSchedule, error) {
	return fault.Profile(name, seed)
}

// DefaultDegradePolicy is the degraded-serving policy the chaos sweep
// applies when none is given.
func DefaultDegradePolicy() DegradePolicy { return experiments.DefaultDegradePolicy() }

// RunChaos executes the resilience sweep: every (backend, fault profile,
// replica count) point is a full serving simulation under that fault
// schedule, reporting availability, tail latency, goodput and retry volume.
func RunChaos(ctx context.Context, opts ChaosOptions) (*ChaosResult, error) {
	return experiments.RunChaos(ctx, opts)
}

// PlacementPolicies lists the placement sweep's known policy names, in
// sweep order: static, greedy, adaptive, adaptive+mirror.
func PlacementPolicies() []string {
	return append([]string(nil), experiments.PlacementPolicies...)
}

// RunPlacement executes the adaptive-placement sweep: every (backend, Zipf
// exponent, policy) point is an offline retrieval run on a skewed workload,
// reporting simulated time, per-owner load imbalance, plan swaps and
// migration volume.
func RunPlacement(ctx context.Context, opts PlacementOptions) (*PlacementResult, error) {
	return experiments.RunPlacement(ctx, opts)
}
