package retrieval

import (
	"fmt"
	"sort"
	"sync"

	"pgasemb/internal/collective"
	"pgasemb/internal/embedding"
	"pgasemb/internal/fabric"
	"pgasemb/internal/gpu"
	"pgasemb/internal/nvlink"
	"pgasemb/internal/pgas"
	"pgasemb/internal/placement"
	"pgasemb/internal/sim"
	"pgasemb/internal/sparse"
	"pgasemb/internal/tensor"
	"pgasemb/internal/workload"
)

// SystemSpec is the immutable description of a simulated machine: the
// experiment configuration, the hardware model and the sharding plan. A spec
// is built (and validated) once and is safe for concurrent use: any number
// of Runs can be created from the same spec, from any number of host
// goroutines, and each Run owns all of its mutable state (simulator clock,
// devices, streams, counters, RNG streams, table weights). Two Runs built
// from the same spec with the same seed produce bit-identical results.
//
// The only caller-supplied code a spec retains is HardwareParams.Topology;
// when set, it must be a pure function of the GPU count.
type SystemSpec struct {
	cfg  Config
	hw   HardwareParams
	plan [][]int // plan[g] = global feature IDs resident on GPU g

	// zipf holds the workload's Zipf rank table, shared with every spec
	// derived by WithBatchSize.
	zipf *lazyZipf
}

// lazyZipf is a workload's Zipf rank table (nil for uniform workloads),
// built on the first run and shared read-only by every later one: it
// depends on the exponent and row count, never on the run's seed or the
// batch size.
type lazyZipf struct {
	once sync.Once
	cdf  *sim.ZipfCDF
}

// zipfCDF returns the spec's shared Zipf rank table, building it on first
// use so spec construction stays cheap.
func (spec *SystemSpec) zipfCDF() *sim.ZipfCDF {
	spec.zipf.once.Do(func() { spec.zipf.cdf = spec.cfg.WorkloadConfig().ZipfCDF() })
	return spec.zipf.cdf
}

// NewSystemSpec validates the configuration and hardware, resolves the
// sharding plan, and checks every GPU's shard against device memory (the
// 32 GB capacity the paper's strong-scaling configuration was designed
// around). All misconfiguration — including a topology whose GPU count does
// not match the configuration, the multi-node divisibility mistake — is
// reported here as an error, before any run starts.
func NewSystemSpec(cfg Config, hw HardwareParams) (*SystemSpec, error) {
	return newSystemSpec(cfg, hw, &lazyZipf{})
}

// WithBatchSize returns a spec of the same machine and workload at another
// batch size, validated like NewSystemSpec. The two specs share one Zipf
// rank table, still built on the first run of either: the serving layer
// derives its bucketed batch shapes this way.
func (spec *SystemSpec) WithBatchSize(batchSize int) (*SystemSpec, error) {
	cfg := spec.cfg
	cfg.BatchSize = batchSize
	return newSystemSpec(cfg, spec.hw, spec.zipf)
}

func newSystemSpec(cfg Config, hw HardwareParams, zipf *lazyZipf) (*SystemSpec, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := hw.GPU.Validate(); err != nil {
		return nil, fmt.Errorf("retrieval: bad GPU parameters: %w", err)
	}
	if err := hw.Link.Validate(); err != nil {
		return nil, fmt.Errorf("retrieval: bad link parameters: %w", err)
	}
	if err := hw.Collective.Validate(); err != nil {
		return nil, fmt.Errorf("retrieval: bad collective parameters: %w", err)
	}
	switch {
	case hw.Nodes < 0:
		return nil, fmt.Errorf("retrieval: negative node count %d", hw.Nodes)
	case hw.Nodes > 0 && hw.Topology != nil:
		return nil, fmt.Errorf("retrieval: HardwareParams.Nodes and HardwareParams.Topology are mutually exclusive " +
			"(Nodes builds the cluster topology itself)")
	case hw.Nodes > cfg.GPUs:
		return nil, fmt.Errorf("retrieval: %d nodes need at least one GPU each, have %d GPUs", hw.Nodes, cfg.GPUs)
	case hw.Nodes > 0 && cfg.GPUs%hw.Nodes != 0:
		return nil, fmt.Errorf("retrieval: %d GPUs cannot be spread evenly over %d nodes "+
			"(the GPU count must be divisible by the node count; %d GPUs would leave %d astray and mis-shard "+
			"every (node, GPU) row owner)", cfg.GPUs, hw.Nodes, cfg.GPUs, cfg.GPUs%hw.Nodes)
	}
	if err := hw.Faults.Validate(); err != nil {
		return nil, fmt.Errorf("retrieval: bad fault schedule: %w", err)
	}
	hw = hw.normalized()
	if hw.Nodes > 0 {
		if err := hw.NIC.Validate(); err != nil {
			return nil, fmt.Errorf("retrieval: bad NIC parameters: %w", err)
		}
		if err := hw.Proxy.Validate(); err != nil {
			return nil, fmt.Errorf("retrieval: bad proxy parameters: %w", err)
		}
	}
	topo := hw.topology(cfg.GPUs)
	if err := nvlink.ValidateTopology(topo); err != nil {
		return nil, fmt.Errorf("retrieval: bad topology: %w", err)
	}
	if n := topo.NumGPUs(); n != cfg.GPUs {
		return nil, fmt.Errorf("retrieval: topology wires %d GPUs but the configuration needs %d "+
			"(multi-node topologies need a GPU count divisible by the node count)", n, cfg.GPUs)
	}
	spec := &SystemSpec{cfg: cfg, hw: hw, zipf: zipf} // hw is the normalized copy
	switch {
	case cfg.CustomPlan != nil:
		spec.plan = cfg.CustomPlan
	case cfg.GreedyPlan:
		// LPT on the analytic pooling loads, with no capacity bound; the
		// per-GPU memory check below still applies.
		plan, err := placement.LPT(cfg.WorkloadConfig().ExpectedPoolingLoad(), cfg.tableBytesAll(), cfg.GPUs, 0)
		if err != nil {
			return nil, err
		}
		spec.plan = plan
	default:
		spec.plan = embedding.TableWisePlan(cfg.TotalTables, cfg.GPUs)
	}
	for g := 0; g < cfg.GPUs; g++ {
		var need int64
		for _, a := range spec.allocPlan(g) {
			need += a.bytes
		}
		if need > hw.GPU.MemoryCapacity {
			return nil, fmt.Errorf("retrieval: GPU %d cannot hold its shard: needs %d bytes, capacity %d",
				g, need, hw.GPU.MemoryCapacity)
		}
	}
	return spec, nil
}

// Config returns the spec's configuration.
func (spec *SystemSpec) Config() Config { return spec.cfg }

// Hardware returns the spec's hardware model.
func (spec *SystemSpec) Hardware() HardwareParams { return spec.hw }

// Plan returns the sharding plan: Plan()[g] lists the global feature IDs
// resident on GPU g. The returned slices are shared and must not be mutated.
func (spec *SystemSpec) Plan() [][]int { return spec.plan }

// allocPlan returns GPU g's named device allocations, in allocation order.
type namedAlloc struct {
	name  string
	bytes int64
}

func (spec *SystemSpec) allocPlan(g int) []namedAlloc {
	cfg := spec.cfg
	var shardBytes int64
	for _, fid := range spec.plan[g] {
		shardBytes += int64(cfg.tableRows(fid)) * int64(cfg.Dim) * 4
	}
	lo, hi := sparse.MinibatchRange(cfg.BatchSize, cfg.GPUs, g)
	outBytes := int64(hi-lo) * int64(cfg.TotalTables) * int64(cfg.Dim) * 4
	allocs := []namedAlloc{
		{"embedding-tables", shardBytes},
		{"emb-output", outBytes},
	}
	if slots := cfg.CacheSlots(spec.hw.GPU); slots > 0 {
		allocs = append(allocs, namedAlloc{
			"hot-row-cache",
			int64(slots) * int64(cfg.cacheSlotBytes()),
		})
	}
	if cfg.HotTables > 0 {
		// Selective replication reserve: room for mirrors of the K largest
		// tables — the hot set is chosen from observed load at run time, so
		// the reserve is sized for the worst footprint it could pick.
		bytes := append([]int64(nil), cfg.tableBytesAll()...)
		sort.Slice(bytes, func(a, b int) bool { return bytes[a] > bytes[b] })
		var mirrorBytes int64
		for _, b := range bytes[:cfg.HotTables] {
			mirrorBytes += b
		}
		allocs = append(allocs, namedAlloc{"hot-mirror", mirrorBytes})
	}
	if cfg.Replicas > 1 {
		// Mirrors of the other shards replicated onto this GPU: shard o is
		// mirrored on GPUs (o+k) mod GPUs for k < Replicas, so GPU g holds
		// mirrors of shards (g-k) mod GPUs for k in [1, Replicas).
		var mirrorBytes int64
		for k := 1; k < cfg.Replicas; k++ {
			o := ((g-k)%cfg.GPUs + cfg.GPUs) % cfg.GPUs
			for _, fid := range spec.plan[o] {
				mirrorBytes += int64(cfg.tableRows(fid)) * int64(cfg.Dim) * 4
			}
		}
		allocs = append(allocs, namedAlloc{"mirror-shards", mirrorBytes})
	}
	return allocs
}

// NewRun wires a fresh per-run System from the spec: its own simulator
// clock, devices, fabric, PGAS runtime, communicator, workload generator and
// (in functional mode) table weights. Runs are independent; many can execute
// concurrently from host goroutines.
func (spec *SystemSpec) NewRun() (*System, error) {
	return spec.NewRunWithSeed(spec.cfg.Seed)
}

// NewRunWithSeed is NewRun with the run's random seed overridden — the
// mechanism behind multi-seed sweeps, which share one spec across all seeds.
// Every RNG stream in the run (workload draws, table weights, synthetic
// gradients) derives from this seed, so a (spec, seed) pair identifies a
// bit-exact result.
func (spec *SystemSpec) NewRunWithSeed(seed uint64) (*System, error) {
	cfg := spec.cfg
	cfg.Seed = seed
	gen, err := workload.NewGeneratorWithZipf(cfg.WorkloadConfig(), spec.zipfCDF())
	if err != nil {
		return nil, err
	}
	env := sim.NewEnv()
	fab, err := nvlink.NewFabric(env, spec.hw.Link, spec.hw.topology(cfg.GPUs))
	if err != nil {
		return nil, err
	}
	s := &System{
		Spec:       spec,
		Cfg:        cfg,
		HW:         spec.hw,
		Env:        env,
		Fab:        fab,
		Plan:       spec.plan,
		gen:        gen,
		gradRng:    sim.NewRNG(cfg.Seed ^ 0x6AAD),
		scratch:    make([]gpuScratch, cfg.GPUs*cfg.PipelineSlots()),
		gates:      make([]sim.Time, cfg.GPUs),
		faultBatch: -1,
		ownerKeys:  make([]int64, cfg.GPUs),
		ownerBytes: make([]float64, cfg.GPUs),
	}
	if spec.hw.Nodes > 0 {
		// Cluster machine: the NIC interconnect carries inter-node traffic,
		// one-sided stores to remote nodes ride the per-GPU proxies, and the
		// baseline's collectives go hierarchical.
		s.cluster = spec.hw.cluster(cfg.GPUs)
		s.Net = fabric.NewInterconnect(env, s.cluster, spec.hw.NIC)
		s.PGAS = pgas.NewCluster(env, fab, s.Net, spec.hw.Proxy)
		s.Comm, err = collective.NewCluster(env, fab, spec.hw.Collective, s.Net)
		if err != nil {
			return nil, fmt.Errorf("retrieval: wiring cluster communicator: %w", err)
		}
	} else {
		s.PGAS = pgas.New(env, fab)
		s.Comm, err = collective.New(env, fab, spec.hw.Collective)
		if err != nil {
			return nil, fmt.Errorf("retrieval: wiring communicator: %w", err)
		}
	}
	if cfg.WireCodecActive() {
		// Reduced wire precision: every whole-row payload on the PGAS and
		// collective transports is accounted at the encoded size.
		s.Comm.SetVectorCodec(cfg.Dim, cfg.WireVectorBytes())
		s.PGAS.SetVectorCodec(cfg.Dim, cfg.WireVectorBytes())
	}
	if slots := cfg.PipelineSlots(); slots > 1 {
		// Double-buffered symmetric heap: each PE's staging region is split
		// into per-slot halves, so quiet can retire one slot's stores while
		// the next slot's are still in flight.
		s.PGAS.ConfigureSlots(slots)
	}
	if sched := spec.hw.Faults; !sched.Empty() && spec.hw.Nodes > 0 && sched.HasProxyDrops() {
		// Delivery-loss hooks only exist on cluster machines: drops model
		// NIC-level delivery failure, and the retry loop lives in the proxy.
		// The closure reads s.faultBatch so the loss process follows the
		// batch the machine is currently executing.
		s.PGAS.SetFaultHooks(&pgas.FaultHooks{
			Drop: func(pe, dstNode int, seq int64, attempt int) bool {
				return sched.Drops(s.faultBatch, pe, dstNode, seq, attempt)
			},
			RetryTimeout: sched.Retry.EffectiveTimeout(),
			RetryBackoff: sched.Retry.EffectiveBackoff(),
			MaxAttempts:  sched.Retry.EffectiveMaxAttempts(),
		})
	}
	for g := 0; g < cfg.GPUs; g++ {
		dev := gpu.NewDevice(env, g, spec.hw.GPU)
		for _, a := range spec.allocPlan(g) {
			if _, err := dev.Alloc(a.name, a.bytes); err != nil {
				return nil, fmt.Errorf("retrieval: GPU %d cannot hold %q: %w", g, a.name, err)
			}
		}
		s.Devs = append(s.Devs, dev)
	}
	if cfg.Functional {
		wrng := sim.NewRNG(cfg.Seed ^ 0xE3B0)
		for g := 0; g < cfg.GPUs; g++ {
			rowsPer := make([]int, len(spec.plan[g]))
			for i, fid := range spec.plan[g] {
				rowsPer[i] = cfg.tableRows(fid)
			}
			s.colls = append(s.colls, embedding.NewCollectionWithRows(spec.plan[g], rowsPer, cfg.Dim, cfg.Pooling, wrng))
		}
		if cfg.WireCodecActive() {
			// Quantize-at-rest: round-trip every table through the wire codec
			// once, so each consumer — local or remote, cached or not, and
			// the serial Reference — observes identical post-codec values
			// regardless of which route (store, collective, replica failover,
			// post-rebalance owner) delivered the row. See internal/tensor.
			for _, coll := range s.colls {
				for _, tbl := range coll.Tables {
					switch cfg.WirePrecision {
					case FP16:
						tensor.RoundTripFloat16(tbl.Weights.Data())
					case Int8:
						tensor.RoundTripInt8Rows(tbl.Weights.Data(), cfg.Dim)
					}
				}
			}
		}
	}
	if cfg.AdaptivePlacement {
		// The run owns a mutable copy of the plan (rebalance epochs rewrite
		// it); weights were created above in spec-plan order, so every run of
		// this spec starts from identical tables regardless of how its
		// placement later evolves.
		plan := make([][]int, cfg.GPUs)
		for g := range plan {
			plan[g] = append([]int(nil), spec.plan[g]...)
		}
		s.Plan = plan
		ctl, err := spec.NewPlacementController()
		if err != nil {
			return nil, err
		}
		s.placeCtl = ctl
		s.hotMirror = make([]bool, cfg.TotalTables)
		if cfg.Functional {
			s.tableByFID = make([]*embedding.Table, cfg.TotalTables)
			for g := range s.colls {
				for i, fid := range s.colls[g].FeatureIDs {
					s.tableByFID[fid] = s.colls[g].Tables[i]
				}
			}
		}
	}
	return s, nil
}

// placementCapacity returns the per-GPU byte budget available to primary
// shards under adaptive placement: device capacity minus the largest
// non-shard reservation any GPU carries (output buffers, the hot-mirror
// reserve, caches). Using the worst GPU's overhead keeps any plan the
// controller accepts feasible on every device.
func (spec *SystemSpec) placementCapacity() int64 {
	var worst int64
	for g := 0; g < spec.cfg.GPUs; g++ {
		var other int64
		for _, a := range spec.allocPlan(g) {
			if a.name != "embedding-tables" {
				other += a.bytes
			}
		}
		if other > worst {
			worst = other
		}
	}
	return spec.hw.GPU.MemoryCapacity - worst
}

// NewPlacementController builds the adaptive-placement controller for this
// spec's initial plan. NewRunWithSeed calls it per run; the serving layer
// builds ONE per session and shares it across dispatch runs via
// System.AttachPlacement, so statistics survive dispatch boundaries.
func (spec *SystemSpec) NewPlacementController() (*placement.Controller, error) {
	cfg := spec.cfg
	pcfg := placement.Config{
		Tables:         cfg.TotalTables,
		GPUs:           cfg.GPUs,
		TableBytes:     cfg.tableBytesAll(),
		CapacityBytes:  spec.placementCapacity(),
		RebalanceEvery: cfg.RebalanceEvery,
		HotTables:      cfg.HotTables,
	}
	model := placement.CostModel{
		GPUs:         cfg.GPUs,
		VectorBytes:  cfg.VectorBytes(),
		HBMBandwidth: spec.hw.GPU.HBMBandwidth,
		// Two NVLink links per pair on the reference machine; the model only
		// needs a consistent scale to compare plans, not an exact wire time.
		WireBandwidth: 2 * spec.hw.Link.LinkBandwidth,
	}
	return placement.NewController(pcfg, model, spec.plan)
}
