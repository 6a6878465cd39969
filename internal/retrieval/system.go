package retrieval

import (
	"context"
	"fmt"

	"pgasemb/internal/cache"
	"pgasemb/internal/collective"
	"pgasemb/internal/embedding"
	"pgasemb/internal/fabric"
	"pgasemb/internal/fault"
	"pgasemb/internal/gpu"
	"pgasemb/internal/metrics"
	"pgasemb/internal/nvlink"
	"pgasemb/internal/pgas"
	"pgasemb/internal/placement"
	"pgasemb/internal/sim"
	"pgasemb/internal/sparse"
	"pgasemb/internal/tensor"
	"pgasemb/internal/trace"
	"pgasemb/internal/workload"
)

// HardwareParams bundles the device-level models a System runs on.
type HardwareParams struct {
	GPU        gpu.Params
	Link       nvlink.Params
	Collective collective.Params

	// Nodes composes the machine from this many NVLink islands joined by
	// the simulated inter-node fabric: per-node NICs, hierarchical
	// collectives for the baseline, and proxy-coalesced one-sided stores
	// for the PGAS backends. 0 means 1: a single node, whose NICs carry no
	// traffic.
	Nodes int
	// NIC configures the per-node NICs; the zero value selects
	// fabric.DefaultNICParams. It only carries traffic when Nodes > 1.
	NIC fabric.NICParams
	// Proxy configures the per-GPU inter-node forwarding proxies; the zero
	// value selects pgas.DefaultProxyConfig. It only carries traffic when
	// Nodes > 1.
	Proxy pgas.ProxyConfig

	// Faults is the run's deterministic fault schedule: link/NIC bandwidth
	// degradation, per-GPU stragglers and proxy delivery drops, windowed on
	// the batch index. Nil (or an empty schedule) injects nothing and is
	// byte- and time-identical to a machine without fault hooks.
	Faults *fault.Schedule
}

// cluster returns the machine's wiring for the given GPU count: Nodes
// islands of fully connected GPUs, two NVLink links per intra-node pair
// (the paper's DGX Station). Call on a normalized copy.
func (hw HardwareParams) cluster(gpus int) fabric.Cluster {
	return fabric.Cluster{Nodes: hw.Nodes, GPUsPerNode: gpus / hw.Nodes, IntraLinks: 2}
}

// normalized maps a zero node count to one node and fills the cluster
// knobs' zero values with their defaults.
func (hw HardwareParams) normalized() HardwareParams {
	if hw.Nodes == 0 {
		hw.Nodes = 1
	}
	if hw.NIC == (fabric.NICParams{}) {
		hw.NIC = fabric.DefaultNICParams()
	}
	if hw.Proxy == (pgas.ProxyConfig{}) {
		hw.Proxy = pgas.DefaultProxyConfig()
	}
	return hw
}

// DefaultHardware returns the calibrated DGX Station V100 parameter set: one
// NVLink node, the same machine as ClusterHardware(1).
func DefaultHardware() HardwareParams {
	return HardwareParams{
		GPU:        gpu.V100Params(),
		Link:       nvlink.DefaultParams(),
		Collective: collective.DefaultParams(),
	}
}

// ClusterHardware returns the default multi-node machine: `nodes` DGX
// Station-style NVLink islands joined by the default NIC fabric, with the
// default proxy coalescing configuration.
func ClusterHardware(nodes int) HardwareParams {
	hw := DefaultHardware()
	hw.Nodes = nodes
	return hw
}

// System is one batch shape's run on a simulated machine: its configuration,
// workload generator, route-plan arena, per-GPU scratch and exchange gates.
// The machine itself — clock, devices, fabric, runtimes, caches, placement,
// fault state, tables and counters — sits behind the embedded pointer, which
// every System wired onto it (SystemSpec.NewRunOn) shares: a serving session
// runs its batch shapes on one machine. The immutable part (config,
// hardware, sharding plan) lives in the Spec, which any number of concurrent
// machines may share.
type System struct {
	*machine
	Spec *SystemSpec
	Cfg  Config
	HW   HardwareParams

	// cluster is the node geometry.
	cluster fabric.Cluster

	gen *workload.Generator

	// scratch[g] holds GPU g's reusable per-batch working buffers; only GPU
	// g's simulated process touches it.
	scratch []gpuScratch

	// gates[g] is GPU g's exchange gate: the earliest simulated time its next
	// collective exchange may launch. The DLRM scheduler points it at the
	// dense stream's pending-kernel horizon before each pipelined batch,
	// modelling NCCL's stream-ordered launch semantics — the all-to-all
	// cannot pass compute kernels already queued on the stream, while PGAS
	// one-sided stores (issued from inside the fused gather kernel) can.
	// All zeros unless the pipelined scheduler sets them.
	gates []sim.Time

	// route is the run's route plan, which every compile rewrites in place,
	// and planScr the compile walk's working state (host-side; see plan.go).
	route   RoutePlan
	planScr planScratch

	// replayScr is the transfer executor's row-staging scratch (functional
	// runs only).
	replayScr []float32
}

// machine is the shape-independent state of one simulated machine, shared by
// every System wired onto it.
type machine struct {
	// spec is the spec the machine was built from: its device allocations
	// cover that spec's batch size and every smaller one.
	spec *SystemSpec

	Env  *sim.Env
	Devs []*gpu.Device
	Fab  *nvlink.Fabric
	PGAS *pgas.Runtime
	Comm *collective.Comm
	// Net is the inter-node NIC interconnect. It is never nil; on a
	// single-node machine it carries no traffic.
	Net *fabric.Interconnect
	// Plan[g] = global feature IDs resident on GPU g. Shared with the Spec
	// and read-only — except under adaptive placement, where the machine owns
	// a deep copy that rebalance epochs swap at batch boundaries.
	Plan [][]int

	// Caches is the per-GPU hot-row cache set (nil when the cache is
	// disabled).
	Caches *cache.Set

	// batchSeq counts NextBatchData calls: the machine's batch index, which
	// the fault schedule and the rebalance cadence key on.
	batchSeq int
	// faultBatch is the batch whose fault factors are currently applied to
	// the machine (-1 before the first ApplyFaults). Makes ApplyFaults
	// idempotent so every GPU's process may call it at the batch barrier.
	faultBatch int
	// dropSeq0[pe] is PE pe's proxy flush count when the current flight
	// started: the drop process numbers each flight's flushes from zero.
	// Nil unless the fault schedule drops deliveries.
	dropSeq0 []int64
	// handover is the signal the latest flight Start began fires when the
	// next flight's GPUs may begin (nil before the first).
	handover *sim.Signal

	// dedupStats accumulates the machine's deduplication savings
	// (finishDedup folds one batch in at a time; host-side, so no
	// synchronisation).
	dedupStats metrics.DedupCounters

	// Adaptive placement state (nil/zero unless Cfg.AdaptivePlacement).
	// placeCtl owns the access statistics and rebalance decisions.
	placeCtl *placement.Controller
	// tableByFID maps global feature ID -> table object so a plan swap
	// re-points shard collections without touching weights (functional
	// adaptive-placement runs only).
	tableByFID []*embedding.Table
	// hotMirror marks the tables currently mirrored on every GPU — the
	// controller's hot set as of the last rebalance; hotCount counts the
	// trues. Both change only at epoch boundaries.
	hotMirror []bool
	hotCount  int
	// rebalances / migratedBytes summarise the machine's plan swaps and the
	// shard payload they moved between owners.
	rebalances    int
	migratedBytes float64

	// ownerKeys accumulates each GPU's served embedding load: keys gathered
	// from its shard on behalf of all consumers.
	ownerKeys []int64

	// colls are the functional shard collections (nil in timing mode).
	colls []*embedding.Collection
}

// NewSystem builds a spec and wires one run from it — the one-shot entry
// point. Callers executing the same configuration repeatedly (sweeps, seed
// statistics, concurrent experiments) should build the SystemSpec once and
// call NewRun per execution instead.
func NewSystem(cfg Config, hw HardwareParams) (*System, error) {
	spec, err := NewSystemSpec(cfg, hw)
	if err != nil {
		return nil, err
	}
	return spec.NewRun()
}

// LocalTables returns the number of tables resident on GPU g.
func (s *System) LocalTables(g int) int { return len(s.Plan[g]) }

// Minibatch returns GPU g's data-parallel sample range.
func (s *System) Minibatch(g int) (lo, hi int) {
	return sparse.MinibatchRange(s.Cfg.BatchSize, s.Cfg.GPUs, g)
}

// BatchData carries one batch through a backend: always its compiled route
// plan, which holds the pooled-index arithmetic the timing model reads, plus
// real indices and output buffers in functional mode.
type BatchData struct {
	// Sparse is the materialised input batch (nil in timing mode).
	Sparse *sparse.Batch
	// Parts are the per-GPU model-parallel partitions of Sparse.
	Parts []*sparse.Batch

	// Final[g] is GPU g's EMB-layer result: (minibatch, TotalTables, Dim),
	// features in global ID order — the layout the interaction layer
	// consumes. Functional mode only.
	Final []*tensor.Tensor

	// Plan is the run's route plan, compiled for this batch: the
	// per-(owner, consumer) routing every backend consults in both timing
	// and functional mode. Always non-nil once NextBatchData returns; the
	// next NextBatchData rewrites it.
	Plan *RoutePlan

	// log records the transfers the walks price, for the executor that
	// replays them into Final (functional mode only; see transfer.go).
	log *transferLog
}

// ApplyFaults installs the fault schedule's factors for the given batch onto
// the machine: every connected NVLink pipe's degradation, every device's
// straggler slowdown, and every NIC rail's degradation. It is idempotent per
// batch, so every GPU's simulated process calls it right after the batch
// rendezvous: the first one through applies, the rest no-op. It is a no-op
// when no schedule is installed. Healthy factors are exactly 1.0, and
// multiplying by 1.0 is IEEE-exact, so never-faulted runs are bit- and
// time-identical to a machine without fault hooks.
func (s *System) ApplyFaults(batch int) {
	sched := s.HW.Faults
	if sched.Empty() || batch == s.faultBatch {
		return
	}
	s.faultBatch = batch
	topo := s.Fab.Topology()
	for a := 0; a < s.Cfg.GPUs; a++ {
		for b := 0; b < s.Cfg.GPUs; b++ {
			if a == b || topo.Links(a, b) <= 0 {
				continue
			}
			s.Fab.SetLinkDegrade(a, b, sched.LinkFactor(batch, a, b))
		}
	}
	for g, dev := range s.Devs {
		dev.SetSlowdown(sched.Slowdown(batch, g))
	}
	for node := 0; node < s.cluster.Nodes; node++ {
		for rail := 0; rail < s.HW.NIC.NICsPerNode; rail++ {
			s.Net.SetRailDegrade(node, rail, sched.NICFactor(batch, node, rail))
		}
	}
}

// PipelineDepth returns the run's inter-batch pipeline depth,
// Config.PipelineDepth normalized to >= 1: how many batches' dense tails
// (the DLRM pipeline) or dispatches (serve) may overlap the next batch's
// exchange. Every exchange runs in lockstep, so fault windows and rebalance
// epochs, which apply at batch boundaries, compose with any depth.
func (s *System) PipelineDepth() int { return max(1, s.Cfg.PipelineDepth) }

// SetExchangeGate marks the earliest simulated time GPU g's next collective
// exchange may launch. The pipelined DLRM scheduler points it at the dense
// stream's pending-kernel horizon; a zero gate is a no-op. Collective-based
// backends consume it at their exchange launch point; PGAS one-sided stores
// ignore it by design.
func (s *System) SetExchangeGate(g int, at sim.Time) { s.gates[g] = at }

// awaitExchangeGate stalls p until GPU g's exchange gate opens. The stall is
// paid inside the caller's communication phase, so it lands in CompComm.
func (s *System) awaitExchangeGate(p *sim.Proc, g int) {
	if at := s.gates[g]; at > 0 {
		p.WaitUntil(at)
	}
}

// NextBatchData draws the next batch in the mode the system was built for
// and compiles its route plan. A timing run never holds its batch: the plan
// carries every count the timing model reads (dedup keys and expansions are
// functional-only), and the compile walk draws each table as it reaches it.
// A functional run materialises the whole batch.
func (s *System) NextBatchData() (*BatchData, error) {
	defer func() { s.batchSeq++ }()
	bd := &BatchData{}
	s.drawPooling()
	if s.Cfg.Functional {
		bd.Sparse = s.drawBatch()
		parts, err := sparse.PartitionByFeature(bd.Sparse, s.Plan)
		if err != nil {
			return nil, err
		}
		bd.Parts = parts
		bd.log = &transferLog{}
		for g := 0; g < s.Cfg.GPUs; g++ {
			lo, hi := s.Minibatch(g)
			bd.Final = append(bd.Final, tensor.New(hi-lo, s.Cfg.TotalTables, s.Cfg.Dim))
		}
	}
	// After Final is allocated: the residency step pools hit vectors into it.
	s.compileRoutePlan(bd)
	s.accumOwnerLoad(bd)
	return bd, nil
}

// DedupStats returns the machine's accumulated index-deduplication counters
// (zero-valued when Config.Dedup is off).
func (s *System) DedupStats() metrics.DedupCounters { return s.dedupStats }

// Backend is one EMB-layer retrieval implementation under test.
type Backend interface {
	// Name labels the backend in results ("baseline", "pgas-fused", ...).
	Name() string
	// RunBatch executes one batch on GPU g's process and records component
	// times into bk. The caller barriers between batches, so no GPU starts a
	// batch before every GPU has finished the previous one.
	RunBatch(s *System, p *sim.Proc, g int, bd *BatchData, bk *trace.Breakdown)
}

// Result summarises one Run.
type Result struct {
	Backend string
	Cfg     Config
	// TotalTime is the accumulated wall-clock of all batches (barrier to
	// barrier), the quantity the paper reports.
	TotalTime sim.Duration
	// PerGPU holds each GPU's accumulated component breakdown.
	PerGPU []*trace.Breakdown
	// Breakdown is the slowest-GPU view (element-wise max), matching the
	// paper's per-component bars.
	Breakdown *trace.Breakdown
	// CommTrace is the machine-wide communication-volume-over-time trace.
	CommTrace *trace.VolumeTrace
	// Final holds the last batch's per-GPU outputs (functional mode).
	Final []*tensor.Tensor
	// LastBatch is the last batch's inputs (functional mode), for
	// verification against the reference.
	LastBatch *sparse.Batch
	// DedupStats summarises the run's index-deduplication savings
	// (zero-valued when Config.Dedup is off).
	DedupStats metrics.DedupCounters
	// NICMessages, NICPayloadBytes and NICWireBytes summarise the run's
	// inter-node traffic (all zero on single-node machines).
	NICMessages     int64
	NICPayloadBytes float64
	NICWireBytes    float64
	// OwnerKeys[g] is GPU g's served embedding load across the run: keys
	// gathered from its shard on behalf of all consumers. metrics.Imbalance
	// over it quantifies how skewed the placement was.
	OwnerKeys []int64
	// Rebalances counts adaptive-placement plan swaps; MigratedBytes is the
	// total shard payload those swaps moved between owners (charged to the
	// fabric on the simulated clock, so it also shows up in TotalTime).
	Rebalances    int
	MigratedBytes float64
}

// Run executes the configured number of batches under the given backend and
// returns timing results (plus functional outputs in functional mode).
// Each batch is barrier-synchronised across GPUs, mirroring the paper's
// measurement of accumulated EMB-layer time over 100 batches; an EMB-only
// run has no dense tail to overlap, so it ignores Config.PipelineDepth.
func (s *System) Run(b Backend) (*Result, error) {
	return s.RunContext(context.Background(), b)
}

// RunContext is Run with cancellation: the run stops (returning ctx.Err())
// when ctx is cancelled or its deadline passes, checked before each batch is
// drawn and periodically inside the event loop. A cancelled run leaves the
// System in an undefined mid-simulation state; discard it and build a fresh
// run from the spec.
func (s *System) RunContext(ctx context.Context, b Backend) (*Result, error) {
	res := &Result{
		Backend: b.Name(),
		Cfg:     s.Cfg,
		PerGPU:  make([]*trace.Breakdown, s.Cfg.GPUs),
	}
	for g := range res.PerGPU {
		res.PerGPU[g] = &trace.Breakdown{}
	}
	start := s.Env.Now()
	last, err := s.Drive(ctx, func(p *sim.Proc, g, _ int, bd *BatchData) {
		b.RunBatch(s, p, g, bd, res.PerGPU[g])
	})
	if err != nil {
		return nil, fmt.Errorf("retrieval: %s run: %w", b.Name(), err)
	}
	res.TotalTime = s.Env.Now() - start
	s.finishResult(res, last)
	return res, nil
}

// finishResult fills the run's post-run summary fields; last is the run's
// final batch (for the functional last-batch capture).
func (s *System) finishResult(res *Result, last *BatchData) {
	res.Breakdown = trace.MergeMax(res.PerGPU...)
	res.CommTrace = s.commTrace()
	res.DedupStats = s.dedupStats
	res.OwnerKeys = append([]int64(nil), s.ownerKeys...)
	res.Rebalances = s.rebalances
	res.MigratedBytes = s.migratedBytes
	res.NICMessages = s.Net.Messages()
	res.NICPayloadBytes = s.Net.PayloadBytes()
	res.NICWireBytes = s.Net.WireBytes()
	if s.Cfg.Functional {
		res.Final = last.Final
		res.LastBatch = last.Sparse
	}
}

// commTrace merges the run's one-sided and collective volume traces, which
// is correct for any mix of the two transports.
func (s *System) commTrace() *trace.VolumeTrace {
	merged := &trace.VolumeTrace{}
	for _, iv := range s.PGAS.TotalTrace().Intervals() {
		merged.Add(iv.Start, iv.End, iv.Bytes)
	}
	for _, iv := range s.Comm.Volume().Intervals() {
		merged.Add(iv.Start, iv.End, iv.Bytes)
	}
	return merged
}
