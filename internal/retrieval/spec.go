package retrieval

import (
	"fmt"
	"sync"

	"pgasemb/internal/cache"
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
// around). All misconfiguration — the multi-node divisibility mistake
// included — is reported here as an error, before any run starts.
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
	hw = hw.normalized()
	switch {
	case hw.Nodes < 0:
		return nil, fmt.Errorf("retrieval: negative node count %d", hw.Nodes)
	case hw.Nodes > cfg.GPUs:
		return nil, fmt.Errorf("retrieval: %d nodes need at least one GPU each, have %d GPUs", hw.Nodes, cfg.GPUs)
	case cfg.GPUs%hw.Nodes != 0:
		return nil, fmt.Errorf("retrieval: %d GPUs cannot be spread evenly over %d nodes "+
			"(the GPU count must be divisible by the node count; %d GPUs would leave %d astray and mis-shard "+
			"every (node, GPU) row owner)", cfg.GPUs, hw.Nodes, cfg.GPUs, cfg.GPUs%hw.Nodes)
	}
	if err := hw.Faults.Validate(); err != nil {
		return nil, fmt.Errorf("retrieval: bad fault schedule: %w", err)
	}
	if err := hw.NIC.Validate(); err != nil {
		return nil, fmt.Errorf("retrieval: bad NIC parameters: %w", err)
	}
	if err := hw.Proxy.Validate(); err != nil {
		return nil, fmt.Errorf("retrieval: bad proxy parameters: %w", err)
	}
	spec := &SystemSpec{cfg: cfg, hw: hw, zipf: zipf} // hw is the normalized copy
	if cfg.GreedyPlan {
		// LPT on the analytic pooling loads, with no capacity bound; the
		// per-GPU memory check below still applies.
		plan, err := placement.LPT(cfg.WorkloadConfig().ExpectedPoolingLoad(), cfg.tableBytesAll(), cfg.GPUs, 0)
		if err != nil {
			return nil, err
		}
		spec.plan = plan
	} else {
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
	tableBytes := int64(cfg.Rows) * int64(cfg.Dim) * 4
	shardBytes := int64(len(spec.plan[g])) * tableBytes
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
		// Selective replication reserve: room for mirrors of K tables — the
		// hot set is chosen from observed load at run time.
		allocs = append(allocs, namedAlloc{"hot-mirror", int64(cfg.HotTables) * tableBytes})
	}
	if cfg.Replicas > 1 {
		// Mirrors of the other shards replicated onto this GPU: shard o is
		// mirrored on GPUs (o+k) mod GPUs for k < Replicas, so GPU g holds
		// mirrors of shards (g-k) mod GPUs for k in [1, Replicas).
		var mirrorBytes int64
		for k := 1; k < cfg.Replicas; k++ {
			o := ((g-k)%cfg.GPUs + cfg.GPUs) % cfg.GPUs
			mirrorBytes += int64(len(spec.plan[o])) * tableBytes
		}
		allocs = append(allocs, namedAlloc{"mirror-shards", mirrorBytes})
	}
	return allocs
}

// NewRun wires a fresh machine from the spec and the spec's System on it:
// its own simulator clock, devices, fabric, PGAS runtime, communicator,
// workload generator and (in functional mode) table weights. Runs are
// independent; many can execute concurrently from host goroutines.
func (spec *SystemSpec) NewRun() (*System, error) {
	return spec.NewRunWithSeed(spec.cfg.Seed)
}

// NewRunWithSeed is NewRun with the run's random seed overridden — the
// mechanism behind multi-seed sweeps, which share one spec across all seeds.
// Every RNG stream in the run (workload draws, table weights, synthetic
// gradients) derives from this seed, so a (spec, seed) pair identifies a
// bit-exact result.
func (spec *SystemSpec) NewRunWithSeed(seed uint64) (*System, error) {
	// The System and its machine are one allocation.
	run := &struct {
		s System
		m machine
	}{}
	s, m := &run.s, &run.m
	s.machine = m
	if err := spec.wire(s, seed); err != nil {
		return nil, err
	}
	cfg := s.Cfg
	env := sim.NewEnv()
	fab, err := nvlink.NewFabric(env, spec.hw.Link, s.cluster)
	if err != nil {
		return nil, err
	}
	*m = machine{
		spec:       spec,
		Env:        env,
		Fab:        fab,
		Plan:       spec.plan,
		faultBatch: -1,
		ownerKeys:  make([]int64, cfg.GPUs),
	}
	// The NIC interconnect carries inter-node traffic, one-sided stores to
	// remote nodes ride the per-GPU proxies, and the baseline's collectives
	// go hierarchical once the machine spans more than one node.
	m.Net = fabric.NewInterconnect(env, s.cluster, spec.hw.NIC)
	m.PGAS = pgas.New(env, fab, m.Net, spec.hw.Proxy)
	m.Comm, err = collective.New(env, fab, spec.hw.Collective, m.Net)
	if err != nil {
		return nil, fmt.Errorf("retrieval: wiring communicator: %w", err)
	}
	if sched := spec.hw.Faults; !sched.Empty() && sched.HasProxyDrops() {
		// Drops model NIC-level delivery failure, and the retry loop lives
		// in the proxy, so they only bite on a multi-node machine. The
		// closure reads the machine's fault batch so the loss process
		// follows the batch the machine is currently executing, and numbers
		// the flushes from the flight's start.
		m.dropSeq0 = make([]int64, cfg.GPUs)
		m.PGAS.SetFaultHooks(&pgas.FaultHooks{
			Drop: func(pe, dstNode int, seq int64, attempt int) bool {
				return sched.Drops(m.faultBatch, pe, dstNode, seq-m.dropSeq0[pe], attempt)
			},
		})
	}
	if s.cacheEnabled() {
		m.Caches = cache.NewSet(cfg.GPUs, cfg.CacheSlots(spec.hw.GPU), cfg.Dim, cfg.RowCounts(), cfg.Functional)
	}
	for g := 0; g < cfg.GPUs; g++ {
		dev := gpu.NewDevice(env, g, spec.hw.GPU)
		for _, a := range spec.allocPlan(g) {
			if _, err := dev.Alloc(a.name, a.bytes); err != nil {
				return nil, fmt.Errorf("retrieval: GPU %d cannot hold %q: %w", g, a.name, err)
			}
		}
		m.Devs = append(m.Devs, dev)
	}
	if cfg.Functional {
		wrng := sim.NewRNG(cfg.Seed ^ 0xE3B0)
		for g := 0; g < cfg.GPUs; g++ {
			m.colls = append(m.colls, embedding.NewCollection(spec.plan[g], cfg.Rows, cfg.Dim, wrng))
		}
		if cfg.WireCodecActive() {
			// Quantize-at-rest: round-trip every table through the wire codec
			// once, so each consumer — local or remote, cached or not, and
			// the serial Reference — observes identical post-codec values
			// regardless of which route (store, collective, replica failover,
			// post-rebalance owner) delivered the row. See internal/tensor.
			for _, coll := range m.colls {
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
		// The machine owns a mutable copy of the plan (rebalance epochs
		// rewrite it); weights were created above in spec-plan order, so
		// every run of this spec starts from identical tables regardless of
		// how its placement later evolves.
		plan := make([][]int, cfg.GPUs)
		for g := range plan {
			plan[g] = append([]int(nil), spec.plan[g]...)
		}
		m.Plan = plan
		ctl, err := spec.newPlacementController()
		if err != nil {
			return nil, err
		}
		m.placeCtl = ctl
		m.hotMirror = make([]bool, cfg.TotalTables)
		if cfg.Functional {
			m.tableByFID = make([]*embedding.Table, cfg.TotalTables)
			for g := range m.colls {
				for i, fid := range m.colls[g].FeatureIDs {
					m.tableByFID[fid] = m.colls[g].Tables[i]
				}
			}
		}
	}
	return s, nil
}

// NewRunOn wires the spec's System onto on's machine: the new System has its
// own configuration, workload generator, plan arena, scratch and gates, and
// shares on's clock, devices, fabric, runtimes, caches, placement, fault
// state, tables and counters. The spec must share a Zipf table with the
// machine's (be derived from it by WithBatchSize, or it) at a batch size no
// larger than the machine's, whose device allocations then cover it.
func (spec *SystemSpec) NewRunOn(on *System) (*System, error) {
	if m := on.machine; spec.zipf != m.spec.zipf || spec.cfg.BatchSize > m.spec.cfg.BatchSize {
		return nil, fmt.Errorf("retrieval: NewRunOn needs a spec derived by WithBatchSize from the machine's, "+
			"at a batch size up to %d", m.spec.cfg.BatchSize)
	}
	s := &System{machine: on.machine}
	if err := spec.wire(s, on.Cfg.Seed); err != nil {
		return nil, err
	}
	return s, nil
}

// wire fills s's per-shape state for a run of the spec with the given seed.
func (spec *SystemSpec) wire(s *System, seed uint64) error {
	cfg := spec.cfg
	cfg.Seed = seed
	gen, err := workload.NewGeneratorWithZipf(cfg.WorkloadConfig(), spec.zipfCDF())
	if err != nil {
		return err
	}
	s.Spec, s.Cfg, s.HW, s.gen = spec, cfg, spec.hw, gen
	s.cluster = spec.hw.cluster(cfg.GPUs)
	s.scratch = make([]gpuScratch, cfg.GPUs)
	s.gates = make([]sim.Time, cfg.GPUs)
	return nil
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

// newPlacementController builds the adaptive-placement controller for this
// spec's initial plan, one per machine.
func (spec *SystemSpec) newPlacementController() (*placement.Controller, error) {
	cfg := spec.cfg
	pcfg := placement.Config{
		Tables:         cfg.TotalTables,
		GPUs:           cfg.GPUs,
		TableBytes:     cfg.tableBytesAll(),
		CapacityBytes:  spec.placementCapacity(),
		RebalanceEvery: cfg.RebalanceEvery,
		HotTables:      cfg.HotTables,
	}
	// The pricer needs the machine's shape and hardware, never a run's
	// pipes or clock.
	s := &System{Spec: spec, Cfg: cfg, HW: spec.hw, cluster: spec.hw.cluster(cfg.GPUs)}
	return placement.NewController(pcfg, newLayoutPricer(s, pcfg.TableBytes), spec.plan)
}
