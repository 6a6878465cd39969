package retrieval

import (
	"context"
	"fmt"
	"io"

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

	// Topology overrides the interconnect wiring; nil selects the paper's
	// DGX Station (fully connected, 2 NVLink links per pair). The
	// multi-node extension passes nvlink.MultiNode here. Mutually exclusive
	// with Nodes.
	Topology func(gpus int) nvlink.Topology

	// Nodes composes the machine from this many NVLink islands joined by
	// the simulated inter-node fabric: per-node NICs, hierarchical
	// collectives for the baseline, and proxy-coalesced one-sided stores
	// for the PGAS backends. 0 keeps the single-node machine with no
	// fabric layer; 1 wires the fabric layer around a single node (no
	// cross-node traffic exists, so results are identical to Nodes == 0).
	Nodes int
	// NIC configures the per-node NICs; the zero value selects
	// fabric.DefaultNICParams. Only meaningful with Nodes > 0.
	NIC fabric.NICParams
	// Proxy configures the per-GPU inter-node forwarding proxies; the zero
	// value selects pgas.DefaultProxyConfig. Only meaningful with Nodes > 0.
	Proxy pgas.ProxyConfig

	// Faults is the run's deterministic fault schedule: link/NIC bandwidth
	// degradation, per-GPU stragglers and proxy delivery drops, windowed on
	// the batch index. Nil (or an empty schedule) injects nothing and is
	// byte- and time-identical to a machine without fault hooks.
	Faults *fault.Schedule
}

// topology resolves the wiring for the given GPU count.
func (hw HardwareParams) topology(gpus int) nvlink.Topology {
	if hw.Nodes > 0 {
		return hw.cluster(gpus)
	}
	if hw.Topology != nil {
		return hw.Topology(gpus)
	}
	return nvlink.DGXStation(gpus)
}

// cluster returns the cluster geometry implied by Nodes (Nodes > 0 only).
func (hw HardwareParams) cluster(gpus int) fabric.Cluster {
	return fabric.Cluster{Nodes: hw.Nodes, GPUsPerNode: gpus / hw.Nodes, IntraLinks: 2}
}

// normalized fills the cluster knobs' zero values with their defaults.
func (hw HardwareParams) normalized() HardwareParams {
	if hw.Nodes > 0 {
		if hw.NIC == (fabric.NICParams{}) {
			hw.NIC = fabric.DefaultNICParams()
		}
		if hw.Proxy == (pgas.ProxyConfig{}) {
			hw.Proxy = pgas.DefaultProxyConfig()
		}
	}
	return hw
}

// DefaultHardware returns the calibrated DGX Station V100 parameter set.
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

// A100Hardware returns an A100-generation machine: faster devices, NVLink
// 3.0 (double the per-link bandwidth) and a correspondingly faster
// collective channel. Used to check that the paper's conclusions are not an
// artifact of the V100 balance point.
func A100Hardware() HardwareParams {
	hw := DefaultHardware()
	hw.GPU = gpu.A100Params()
	hw.Link.LinkBandwidth = 50e9
	hw.Collective.ChannelBandwidth = 2 * hw.Collective.ChannelBandwidth
	return hw
}

// System is one RUN of a wired-up simulated machine: devices, fabric, PGAS
// runtime, NCCL communicator, table shards and the workload generator. All
// of this state is mutable and belongs to exactly one run; the immutable
// part (config, hardware, sharding plan) lives in the Spec, which any number
// of concurrent Systems may share.
type System struct {
	Spec *SystemSpec
	Cfg  Config
	HW   HardwareParams
	Env  *sim.Env
	Devs []*gpu.Device
	Fab  *nvlink.Fabric
	PGAS *pgas.Runtime
	Comm *collective.Comm
	// Net is the inter-node NIC interconnect; nil when HW.Nodes == 0.
	Net *fabric.Interconnect
	// Plan[g] = global feature IDs resident on GPU g. Shared with the Spec
	// and read-only — except under adaptive placement, where the run owns a
	// deep copy that rebalance epochs swap at batch boundaries.
	Plan [][]int

	// cluster is the node geometry (zero value when HW.Nodes == 0).
	cluster fabric.Cluster

	// Caches is the per-GPU hot-row cache set, built lazily on the first
	// batch when Cfg.CacheFraction > 0 (or installed warm via AttachCaches).
	// Nil when the cache is disabled.
	Caches *cache.Set

	gen     *workload.Generator
	gradRng *sim.RNG // upstream gradients for the backward extension

	// batchSeq counts NextBatchData calls: the batch index the route-plan
	// compiler hands to the fault schedule when picking replica routes.
	batchSeq int
	// faultBatch is the batch whose fault factors are currently applied to
	// the machine (-1 before the first ApplyFaults). Makes ApplyFaults
	// idempotent so every GPU's process may call it at the batch barrier.
	faultBatch int
	// faultOffset shifts the machine's batch indices on the fault schedule's
	// timeline. The serving layer executes each dispatch as its own one-batch
	// run (internal index 0); SetFaultOffset maps that onto the dispatch
	// sequence so faults unfold across a serving session.
	faultOffset int

	// scratch holds each GPU's reusable per-batch working buffers, one arena
	// per (GPU, pipeline slot): scratch[g*slots+k] belongs to GPU g's slot k,
	// and only GPU g's simulated process touches it. With pipelining off
	// (slots == 1) this is exactly one arena per GPU.
	scratch []gpuScratch

	// gates[g] is GPU g's exchange gate: the earliest simulated time its next
	// collective exchange may launch. The DLRM scheduler points it at the
	// dense stream's pending-kernel horizon before each pipelined batch,
	// modelling NCCL's stream-ordered launch semantics — the all-to-all
	// cannot pass compute kernels already queued on the stream, while PGAS
	// one-sided stores (issued from inside the fused gather kernel) can.
	// All zeros unless the pipelined scheduler sets them.
	gates []sim.Time

	// planScr is the route-plan compiler's per-run arena (host-side; see
	// plan.go).
	planScr planScratch

	// dedupStats accumulates the run's deduplication savings (classifyDedup
	// folds one batch in at a time; host-side, so no synchronisation).
	dedupStats metrics.DedupCounters

	// Adaptive placement state (nil/zero unless Cfg.AdaptivePlacement).
	// placeCtl owns the access statistics and rebalance decisions; the
	// serving layer installs a session-shared controller via AttachPlacement
	// so statistics survive across its one-batch dispatch runs.
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
	// rebalances / migratedBytes summarise the run's plan swaps and the
	// shard payload they moved between owners.
	rebalances    int
	migratedBytes float64

	// ownerKeys/ownerBytes accumulate each GPU's served embedding load:
	// keys gathered from its shard and bytes leaving its HBM on behalf of
	// all consumers.
	ownerKeys  []int64
	ownerBytes []float64

	// Functional state (nil slices in timing mode).
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

// SaveShard checkpoints GPU g's embedding tables (functional mode only).
func (s *System) SaveShard(g int, w io.Writer) error {
	coll, err := s.Collection(g)
	if err != nil {
		return err
	}
	return embedding.SaveCollection(w, coll)
}

// LoadShard replaces GPU g's embedding tables from a checkpoint written by
// SaveShard (functional mode only). The checkpoint must describe the same
// feature IDs, rows and dimension.
func (s *System) LoadShard(g int, r io.Reader) error {
	c, err := embedding.LoadCollection(r)
	if err != nil {
		return err
	}
	cur, err := s.Collection(g)
	if err != nil {
		return err
	}
	if c.Dim != cur.Dim || len(c.Tables) != len(cur.Tables) {
		return fmt.Errorf("retrieval: checkpoint shape (%d tables, dim %d) does not match shard (%d, %d)",
			len(c.Tables), c.Dim, len(cur.Tables), cur.Dim)
	}
	for i := range c.FeatureIDs {
		if c.FeatureIDs[i] != cur.FeatureIDs[i] {
			return fmt.Errorf("retrieval: checkpoint feature %d is table %d, shard has %d",
				i, c.FeatureIDs[i], cur.FeatureIDs[i])
		}
		if c.Tables[i].Rows != cur.Tables[i].Rows {
			return fmt.Errorf("retrieval: checkpoint table %d has %d rows, shard has %d",
				i, c.Tables[i].Rows, cur.Tables[i].Rows)
		}
	}
	s.colls[g] = c
	return nil
}

// globalIndexTotal returns the pooled-index total across ALL features for
// samples [lo, hi).
func (s *System) globalIndexTotal(sum *workload.Summary, lo, hi int) int64 {
	var total int64
	for fid := 0; fid < sum.NumFeatures; fid++ {
		row := sum.Pooling[fid*sum.BatchSize:]
		for smp := lo; smp < hi; smp++ {
			total += int64(row[smp])
		}
	}
	return total
}

// LocalTables returns the number of tables resident on GPU g.
func (s *System) LocalTables(g int) int { return len(s.Plan[g]) }

// Minibatch returns GPU g's data-parallel sample range.
func (s *System) Minibatch(g int) (lo, hi int) {
	return sparse.MinibatchRange(s.Cfg.BatchSize, s.Cfg.GPUs, g)
}

// Collection returns GPU g's table shard. It errors outside functional mode
// (timing-only systems materialise no weights).
func (s *System) Collection(g int) (*embedding.Collection, error) {
	if s.colls == nil {
		return nil, fmt.Errorf("retrieval: Collection needs functional mode (timing-only systems hold no weights)")
	}
	if g < 0 || g >= len(s.colls) {
		return nil, fmt.Errorf("retrieval: Collection(%d) out of range for %d GPUs", g, len(s.colls))
	}
	return s.colls[g], nil
}

// BatchData carries one batch's inputs through a backend: always the
// pooling summary (timing), plus real indices and output buffers in
// functional mode.
type BatchData struct {
	// Slot is the batch's pipeline slot (batch index modulo the effective
	// pipeline depth): the index of the per-GPU scratch arena, route-plan
	// arena and PGAS staging region this batch borrows. Always 0 when
	// pipelining is off.
	Slot int
	// Summary is the pooling structure driving the timing model.
	Summary *workload.Summary
	// Sparse is the materialised input batch (nil in timing mode).
	Sparse *sparse.Batch
	// Parts are the per-GPU model-parallel partitions of Sparse.
	Parts []*sparse.Batch

	// Final[g] is GPU g's EMB-layer result: (minibatch, TotalTables, Dim),
	// features in global ID order — the layout the interaction layer
	// consumes. Functional mode only.
	Final []*tensor.Tensor

	// Grads[g] is the upstream gradient arriving at GPU g's EMB output
	// during the backward pass — same shape as Final[g]. Synthesised
	// deterministically in functional mode for the backward-pass
	// extension experiments.
	Grads []*tensor.Tensor

	// Plan is the batch's compiled route plan: the per-(owner, consumer)
	// routing every backend consults in both timing and functional mode.
	// Always non-nil once NextBatchData returns; its Cache/Dedup views are
	// nil when the corresponding feature is off.
	Plan *RoutePlan

	// DedupStage[src][dst] is the consumer-side staging buffer owner src
	// streams its unique rows into (functional wire pairs only).
	DedupStage [][][]float32
	// NodeStage[src][node] is the node-level staging buffer: owner src
	// streams each node-unique row into it once, addressed at the node's
	// stage-lane GPU; the node's consumers expand from it after the dedup
	// barrier (functional node-wire pairings only).
	NodeStage [][][]float32
	// dedupBarrier is the post-quiet rendezvous PGAS backends await before
	// consumer-side expansion (nil when dedup is off or single-GPU).
	dedupBarrier *sim.Barrier
}

// ApplyFaults installs the fault schedule's factors for the given batch onto
// the machine: every connected NVLink pipe's degradation, every device's
// straggler slowdown, and (on clusters) every NIC rail's degradation. It is
// idempotent per batch, so every GPU's simulated process calls it right after
// the batch barrier — the first one through applies, the rest no-op — and it
// is a no-op when no schedule is installed (healthy factors are exactly 1.0,
// and multiplying by 1.0 is IEEE-exact, so never-faulted runs are bit- and
// time-identical to a machine without fault hooks).
func (s *System) ApplyFaults(batch int) {
	sched := s.HW.Faults
	batch += s.faultOffset
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
	if s.Net != nil {
		for node := 0; node < s.cluster.Nodes; node++ {
			for rail := 0; rail < s.HW.NIC.NICsPerNode; rail++ {
				s.Net.SetRailDegrade(node, rail, sched.NICFactor(batch, node, rail))
			}
		}
	}
}

// PipelineDepth returns the run's effective inter-batch pipeline depth: the
// configured Config.PipelineDepth normalized to >= 1, forced to 1 when a
// fault schedule is installed or adaptive placement is enabled. Fault windows
// are defined against a lockstep batch sequence, and rebalance epochs swap
// the sharding plan at batch boundaries — in both cases letting GPUs skew
// across batches would make "the machine's state during batch N" ambiguous.
func (s *System) PipelineDepth() int {
	if !s.HW.Faults.Empty() || s.placementEnabled() {
		return 1
	}
	return s.Cfg.PipelineSlots()
}

// scratchFor returns GPU g's scratch arena for bd's pipeline slot. Only GPU
// g's simulated process may use the returned arena, and only while bd is the
// batch in flight on that slot.
func (s *System) scratchFor(g int, bd *BatchData) *gpuScratch {
	return &s.scratch[g*s.Cfg.PipelineSlots()+bd.Slot]
}

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

// SetFaultOffset shifts this run's batch indices by off on the fault
// schedule's timeline: internal batch b is treated as schedule batch b+off
// by ApplyFaults, the route-plan compiler's replica selection, and the proxy
// drop process. The serving layer calls it with the dispatch sequence number
// before each one-batch dispatch run, so a fault window expressed in
// dispatches hits the right requests. Call before the first batch.
func (s *System) SetFaultOffset(off int) { s.faultOffset = off }

// NextBatchData draws the next batch in the mode the system was built for.
func (s *System) NextBatchData() (*BatchData, error) {
	defer func() { s.batchSeq++ }()
	bd := &BatchData{Slot: s.batchSeq % s.PipelineDepth()}
	if !s.Cfg.Functional {
		if s.cacheEnabled() || s.Cfg.Dedup || s.placementEnabled() {
			// The route-plan compiler (and the placement statistics feed)
			// needs real indices; draw them into the run's scratch batch,
			// compile, then drop it — timing runs keep no data plane, and
			// no timing-mode plan field aliases the batch (dedup keys and
			// expansions are functional-only). The pooling stream (and so
			// all timing inputs) is identical to what NextSummary would
			// have produced.
			bd.Sparse = &s.planScr.batch
			s.gen.NextBatchInto(bd.Sparse)
			bd.Summary = summaryFromBatch(bd.Sparse)
			s.compileRoutePlan(bd)
			s.observeBatch(bd)
			bd.Sparse = nil
			return bd, nil
		}
		bd.Summary = s.gen.NextSummary()
		s.compileRoutePlan(bd)
		s.observeBatch(bd)
		return bd, nil
	}
	bd.Sparse = s.gen.NextBatch()
	// Derive the summary from the materialised batch so timing is identical
	// to what NextSummary would have produced (same pooling stream).
	bd.Summary = summaryFromBatch(bd.Sparse)
	parts, err := sparse.PartitionByFeature(bd.Sparse, s.Plan)
	if err != nil {
		return nil, err
	}
	bd.Parts = parts
	for g := 0; g < s.Cfg.GPUs; g++ {
		lo, hi := s.Minibatch(g)
		bd.Final = append(bd.Final, tensor.New(hi-lo, s.Cfg.TotalTables, s.Cfg.Dim))
		grad := tensor.New(hi-lo, s.Cfg.TotalTables, s.Cfg.Dim)
		grad.RandomUniform(s.gradRng, -0.1, 0.1)
		bd.Grads = append(bd.Grads, grad)
	}
	// After Final is allocated: cache classification pools hit vectors into
	// it, and dedup classification (which runs after, so hit vectors never
	// enter the key sets) sizes the staging buffers.
	s.compileRoutePlan(bd)
	s.observeBatch(bd)
	return bd, nil
}

// DedupStats returns the run's accumulated index-deduplication counters
// (zero-valued when Config.Dedup is off).
func (s *System) DedupStats() metrics.DedupCounters { return s.dedupStats }

func summaryFromBatch(b *sparse.Batch) *workload.Summary {
	sum := &workload.Summary{
		BatchSize:   b.Size,
		NumFeatures: len(b.Features),
		Pooling:     make([]int32, len(b.Features)*b.Size),
	}
	for f := range b.Features {
		for smp := 0; smp < b.Size; smp++ {
			sum.Pooling[f*b.Size+smp] = int32(b.Features[f].PoolingFactor(smp))
		}
	}
	return sum
}

// localIndexTotal returns the pooled-index total across GPU g's features for
// samples [lo, hi).
func (s *System) localIndexTotal(sum *workload.Summary, g, lo, hi int) int64 {
	var total int64
	for _, fid := range s.Plan[g] {
		row := sum.Pooling[fid*sum.BatchSize:]
		for smp := lo; smp < hi; smp++ {
			total += int64(row[smp])
		}
	}
	return total
}

// Backend is one EMB-layer retrieval implementation under test.
type Backend interface {
	// Name labels the backend in results ("baseline", "pgas-fused", ...).
	Name() string
	// RunBatch executes one batch on GPU g's process and records component
	// times into bk. With pipelining off the caller barriers between batches,
	// so all GPUs enter at the same simulated time; with PipelineDepth > 1
	// the caller's sliding-window rendezvous allows up to depth-1 batches of
	// skew between GPUs, and each batch's slot resources (scratch arena,
	// staging region) are private to that batch until it retires.
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
	// ProxyDrops, ProxyRetries and ProxyRetriesExhausted summarise the
	// fault-injected delivery losses the proxies absorbed (all zero without
	// a fault schedule injecting ProxyDrop events).
	ProxyDrops            int64
	ProxyRetries          int64
	ProxyRetriesExhausted int64
	// OwnerKeys[g] / OwnerBytes[g] are GPU g's served embedding load across
	// the run: keys gathered from its shard and bytes leaving its HBM on
	// behalf of all consumers. metrics.Imbalance over either quantifies how
	// skewed the placement was.
	OwnerKeys  []int64
	OwnerBytes []float64
	// Rebalances counts adaptive-placement plan swaps; MigratedBytes is the
	// total shard payload those swaps moved between owners (charged to the
	// fabric on the simulated clock, so it also shows up in TotalTime).
	Rebalances    int
	MigratedBytes float64
}

// Run executes the configured number of batches under the given backend and
// returns timing results (plus functional outputs in functional mode).
// Each batch is barrier-synchronised across GPUs, mirroring the paper's
// measurement of accumulated EMB-layer time over 100 batches.
func (s *System) Run(b Backend) (*Result, error) {
	return s.RunContext(context.Background(), b)
}

// RunContext is Run with cancellation: the run stops (returning ctx.Err())
// when ctx is cancelled or its deadline passes, checked between batches
// during input generation and periodically inside the event loop. A
// cancelled run leaves the System in an undefined mid-simulation state;
// discard it and build a fresh run from the spec.
func (s *System) RunContext(ctx context.Context, b Backend) (*Result, error) {
	res := &Result{
		Backend: b.Name(),
		Cfg:     s.Cfg,
		PerGPU:  make([]*trace.Breakdown, s.Cfg.GPUs),
	}
	for g := range res.PerGPU {
		res.PerGPU[g] = &trace.Breakdown{}
	}
	s.PGAS.ResetCounters()
	s.Comm.ResetVolume()
	s.Fab.Reset()
	if s.Net != nil {
		s.Net.Reset()
	}
	s.resetOwnerLoad()
	if s.placementEnabled() {
		// Adaptive placement runs epoch-chunked: batches are generated one
		// rebalance epoch at a time so each epoch's route plans are compiled
		// against the placement that will actually execute it.
		return s.runAdaptive(ctx, b, res)
	}

	batches := make([]*BatchData, s.Cfg.Batches)
	for i := range batches {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		bd, err := s.NextBatchData()
		if err != nil {
			return nil, err
		}
		batches[i] = bd
	}

	start := s.Env.Now()
	if err := s.runEpoch(ctx, b, res, batches, 0); err != nil {
		return nil, err
	}
	res.TotalTime = s.Env.Now() - start
	s.finishResult(res, b, batches)
	return res, nil
}

// runEpoch executes the given batches on all GPUs — the inner loop of a run.
// firstBatch offsets the fault schedule's batch indices for epoch-chunked
// adaptive-placement runs, whose batches arrive one rebalance epoch at a time.
func (s *System) runEpoch(ctx context.Context, b Backend, res *Result, batches []*BatchData, firstBatch int) error {
	barrier := sim.NewBarrier(s.Env, s.Cfg.GPUs)
	depth := s.PipelineDepth()
	var win *sim.Window
	if depth > 1 {
		win = sim.NewWindow(s.Env, s.Cfg.GPUs, depth)
	}
	var runErr error
	for g := 0; g < s.Cfg.GPUs; g++ {
		g := g
		s.Env.Go(fmt.Sprintf("gpu%d", g), func(p *sim.Proc) {
			defer func() {
				if r := recover(); r != nil && runErr == nil {
					runErr = fmt.Errorf("retrieval: GPU %d: %v", g, r)
				}
			}()
			if win != nil {
				// Pipelined: the sliding window lets this GPU run up to
				// depth-1 batches ahead of the slowest one, so a fast GPU's
				// next exchange overlaps a slow GPU's current batch. Fault
				// schedules force depth 1, so ApplyFaults never runs here.
				for bi, bd := range batches {
					win.Enter(p, bi)
					b.RunBatch(s, p, g, bd, res.PerGPU[g])
					win.Retire(g)
				}
				barrier.Await(p) // final rendezvous so TotalTime is the makespan
				return
			}
			for bi, bd := range batches {
				barrier.Await(p)
				s.ApplyFaults(firstBatch + bi)
				b.RunBatch(s, p, g, bd, res.PerGPU[g])
			}
			barrier.Await(p) // final rendezvous so TotalTime is the makespan
		})
	}
	if _, err := s.Env.RunContext(ctx); err != nil {
		return fmt.Errorf("retrieval: %s run: %w", b.Name(), err)
	}
	return runErr
}

// finishResult fills the post-run summary fields shared by the lockstep and
// adaptive-placement paths; batches is the final epoch's inputs (for the
// functional last-batch capture).
func (s *System) finishResult(res *Result, b Backend, batches []*BatchData) {
	res.Breakdown = trace.MergeMax(res.PerGPU...)
	res.CommTrace = s.commTrace(b)
	res.DedupStats = s.dedupStats
	res.OwnerKeys = append([]int64(nil), s.ownerKeys...)
	res.OwnerBytes = append([]float64(nil), s.ownerBytes...)
	res.Rebalances = s.rebalances
	res.MigratedBytes = s.migratedBytes
	if s.Net != nil {
		res.NICMessages = s.Net.Messages()
		res.NICPayloadBytes = s.Net.PayloadBytes()
		res.NICWireBytes = s.Net.WireBytes()
	}
	for g := 0; g < s.PGAS.NumPEs(); g++ {
		pe := s.PGAS.PE(g)
		res.ProxyDrops += pe.Drops()
		res.ProxyRetries += pe.Retries()
		res.ProxyRetriesExhausted += pe.RetriesExhausted()
	}
	if s.Cfg.Functional && len(batches) > 0 {
		last := batches[len(batches)-1]
		res.Final = last.Final
		res.LastBatch = last.Sparse
	}
}

// CommTracer is implemented by backends whose communication rides a single,
// known plane (e.g. the baseline's collective); the Result's volume trace
// comes from the backend itself instead of a type switch. Backends that do
// not implement it get the merged one-sided + collective trace, which is
// correct for any mix of the two transports.
type CommTracer interface {
	// CommTrace returns the backend's communication-volume-over-time trace
	// for the run that just completed on s.
	CommTrace(s *System) *trace.VolumeTrace
}

// commTrace picks the volume trace that corresponds to the backend's
// communication path.
func (s *System) commTrace(b Backend) *trace.VolumeTrace {
	if ct, ok := b.(CommTracer); ok {
		return ct.CommTrace(s)
	}
	merged := &trace.VolumeTrace{}
	for _, iv := range s.PGAS.TotalTrace().Intervals() {
		merged.Add(iv.Start, iv.End, iv.Bytes)
	}
	for _, iv := range s.Comm.Volume().Intervals() {
		merged.Add(iv.Start, iv.End, iv.Bytes)
	}
	return merged
}
