// Package retrieval implements the paper's contribution and its baseline:
// the multi-GPU embedding-retrieval (EMB layer) forward pass in two
// communication schemes —
//
//   - Baseline: lookup+pooling CUDA kernel → stream synchronisation → NCCL
//     all_to_all_single → unpack/rearrangement kernel (§IV's "typical
//     PyTorch implementation"), and
//   - PGASFused: a single fused kernel that issues one-sided PGAS stores to
//     each output's owning GPU as soon as the output vector is pooled,
//     followed by quiet (§III's proposal),
//
// plus the two ablations that isolate the paper's claimed mechanisms
// (unpack elimination vs. communication/computation overlap).
//
// Each backend runs in two modes on the same orchestration path: a
// timing-only mode at paper scale (batch 16384, millions of rows), where
// traffic and kernel costs are derived from workload summaries, and a
// functional mode at test scale, where real embeddings move through real
// buffers and every backend's output is verified bit-exactly against a
// serial reference.
package retrieval

import (
	"fmt"

	"pgasemb/internal/embedding"
	"pgasemb/internal/gpu"
	"pgasemb/internal/workload"
)

// Precision selects the wire transport precision for embedding rows
// (Config.WirePrecision): rows are compressed at the owning GPU, shipped over
// NVLink or the NIC in the reduced format, and decompressed at the consumer.
// The zero value is full fp32 — existing configurations are unaffected.
type Precision int

const (
	// FP32 ships full 4-byte floats (the default; no codec).
	FP32 Precision = iota
	// FP16 ships IEEE binary16 rows: 2 bytes per element.
	FP16
	// Int8 ships per-row absmax-scaled int8 rows: 1 byte per element plus a
	// 4-byte fp32 scale per row.
	Int8
)

func (p Precision) String() string {
	switch p {
	case FP16:
		return "fp16"
	case Int8:
		return "int8"
	}
	return "fp32"
}

// ParsePrecision parses a wire precision name as accepted by the CLI
// -precision flags: fp32, fp16 or int8.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "fp32", "":
		return FP32, nil
	case "fp16":
		return FP16, nil
	case "int8":
		return Int8, nil
	}
	return FP32, fmt.Errorf("retrieval: unknown wire precision %q (want fp32, fp16 or int8)", s)
}

// Config describes one experiment setup.
type Config struct {
	// GPUs is the number of devices (1-4 in the paper).
	GPUs int
	// TotalTables is the number of embedding tables across all GPUs,
	// sharded table-wise. The paper's weak scaling uses 64 per GPU; strong
	// scaling uses 96 total.
	TotalTables int
	// Rows is the hash size M of each table (paper: 1M).
	Rows int
	// Dim is the embedding dimension d (paper: 64).
	Dim int
	// BatchSize is the global batch size N (paper: 16384).
	BatchSize int
	// MinPooling and MaxPooling bound the uniform pooling factor.
	MinPooling, MaxPooling int
	// Batches is the number of inference batches to run (paper: 100).
	Batches int
	// Seed drives all randomness.
	Seed uint64
	// ChunksPerKernel is the granularity at which the fused kernel
	// interleaves compute and one-sided stores (progress quantum of the
	// timing model; the real kernel interleaves per warp).
	ChunksPerKernel int
	// Functional enables the real data plane (small configs only).
	Functional bool
	// PerFeatureMaxPooling optionally makes features heterogeneous (len
	// TotalTables); see workload.Config.
	PerFeatureMaxPooling []int
	// GreedyPlan balances table placement by expected pooling load instead
	// of assigning contiguous blocks — the planner a skewed workload needs.
	GreedyPlan bool
	// PerFeatureRows optionally gives each table its own hash size (len
	// TotalTables; nil = uniform Rows).
	PerFeatureRows []int
	// CustomPlan overrides table placement entirely: CustomPlan[g] lists the
	// global feature IDs on GPU g. Every table must be assigned exactly once.
	// Takes precedence over GreedyPlan.
	CustomPlan [][]int
	// Pooling selects the pooling operation (functional mode).
	Pooling embedding.PoolingMode
	// NullProbability, Distribution, ZipfExponent pass through to the
	// workload generator.
	NullProbability float64
	Distribution    workload.IndexDist
	ZipfExponent    float64
	// CacheFraction enables the serving-side hot-row cache: each GPU
	// dedicates this fraction of its memory capacity to caching embedding
	// rows owned by OTHER GPUs, short-circuiting their remote fetches on a
	// hit. 0 disables the cache.
	CacheFraction float64
	// Dedup enables batch-level index deduplication: per (owner, consumer)
	// GPU pair, each batch's repeated rows are gathered, shipped and
	// unpacked once and expanded at the consumer (see dedup.go). Composes
	// with the hot-row cache.
	Dedup bool
	// Replicas mirrors each GPU's table shard on this many GPUs (shard o
	// lives on GPUs (o+k) mod GPUs for k < Replicas): the HPS-style
	// replication that lets the route-plan compiler serve any (owner,
	// consumer) pair from the healthiest replica — including the consumer
	// itself, turning remote reads into local ones — and fail over around
	// degraded links. 0 and 1 both mean no replication. Composes with the
	// hot-row cache (a consumer never caches a shard it holds a replica of);
	// excludes Dedup and AdaptivePlacement.
	Replicas int
	// AdaptivePlacement enables the access-statistics-driven placement
	// layer: the route-plan compiler feeds per-table and per-row-bucket
	// lookup statistics to a placement controller, and every RebalanceEvery
	// batches the run recomputes table placement from OBSERVED loads (LPT
	// over the EMA, cost-model-gated with hysteresis), charges the shard
	// migration as real NVLink/NIC traffic on the simulated clock, and swaps
	// the effective plan at the batch boundary. Outputs are bit-exact with
	// rebalancing on or off. Forces pipeline depth 1 (a plan swap is
	// defined against a lockstep batch sequence).
	AdaptivePlacement bool
	// RebalanceEvery is the adaptive-placement epoch length in batches.
	// Required (positive) when AdaptivePlacement is set.
	RebalanceEvery int
	// HotTables additionally mirrors the top-K hottest OBSERVED tables on
	// every GPU (selective replication — cheaper than the full-mirror
	// Replicas): consumers pool mirrored vectors locally, exactly like a
	// hot-row cache hit, and the mirror installs are charged as migration
	// traffic. Requires AdaptivePlacement. Composes with the hot-row cache:
	// a mirrored table's vectors never probe it.
	HotTables int
	// HotSetDriftEvery passes through to the workload generator: the Zipf
	// hot set rotates to a different index-space region every this many
	// batches (see workload.Config.HotSetDriftEvery). The shifting-traffic
	// regime adaptive placement is built to chase. Zipf distribution only.
	HotSetDriftEvery int
	// PipelineDepth enables inter-batch software pipelining: scratch arenas,
	// route plans and the PGAS staging region are replicated across this many
	// slots, and the global inter-batch barrier relaxes to a sliding-window
	// rendezvous so batch N+1's embedding exchange can start while batch N's
	// dense compute (or a slower GPU's batch N) is still in flight. 0 and 1
	// both mean today's serial behavior; 2 is double buffering. Runs with a
	// fault schedule force depth 1 (fault windows are defined against a
	// lockstep batch sequence).
	PipelineDepth int
	// WirePrecision compresses embedding rows for transport: owners encode
	// rows to fp16 or per-row-scaled int8 before they cross NVLink or the
	// NIC, consumers decode them at HBM bandwidth. Wire and collective byte
	// counts shrink by the codec ratio while HBM-side gather costs stay
	// fp32; in functional mode every row's values are the real
	// quantize→dequantize round trip (the serial Reference applies the same
	// codec, so bit-exactness still holds). The backward gradient path stays
	// fp32.
	WirePrecision Precision
}

// PipelineSlots returns the normalized pipeline depth (>= 1): the number of
// per-GPU resource slots batches rotate through.
func (c Config) PipelineSlots() int {
	if c.PipelineDepth <= 1 {
		return 1
	}
	return c.PipelineDepth
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.GPUs <= 0:
		return fmt.Errorf("retrieval: GPUs must be positive")
	case c.TotalTables < c.GPUs:
		return fmt.Errorf("retrieval: need at least one table per GPU (%d tables, %d GPUs)", c.TotalTables, c.GPUs)
	case c.Rows <= 0:
		return fmt.Errorf("retrieval: Rows must be positive")
	case c.Dim <= 0:
		return fmt.Errorf("retrieval: Dim must be positive")
	case c.BatchSize < c.GPUs:
		return fmt.Errorf("retrieval: need at least one sample per GPU minibatch")
	case c.MinPooling < 0 || c.MaxPooling < c.MinPooling:
		return fmt.Errorf("retrieval: bad pooling range [%d, %d]", c.MinPooling, c.MaxPooling)
	case c.Batches <= 0:
		return fmt.Errorf("retrieval: Batches must be positive")
	case c.ChunksPerKernel <= 0:
		return fmt.Errorf("retrieval: ChunksPerKernel must be positive")
	case c.PerFeatureRows != nil && len(c.PerFeatureRows) != c.TotalTables:
		return fmt.Errorf("retrieval: PerFeatureRows has %d entries for %d tables",
			len(c.PerFeatureRows), c.TotalTables)
	case c.CustomPlan != nil && len(c.CustomPlan) != c.GPUs:
		return fmt.Errorf("retrieval: CustomPlan has %d shards for %d GPUs", len(c.CustomPlan), c.GPUs)
	case c.CacheFraction < 0 || c.CacheFraction >= 1:
		return fmt.Errorf("retrieval: CacheFraction %g outside [0, 1)", c.CacheFraction)
	case c.Replicas < 0:
		return fmt.Errorf("retrieval: negative Replicas %d", c.Replicas)
	case c.PipelineDepth < 0:
		return fmt.Errorf("retrieval: negative PipelineDepth %d", c.PipelineDepth)
	case c.Replicas > c.GPUs:
		return fmt.Errorf("retrieval: %d replicas need %d GPUs, have %d (a shard cannot be mirrored twice on one GPU)",
			c.Replicas, c.Replicas, c.GPUs)
	case c.Replicas > 1 && c.Dedup:
		return fmt.Errorf("retrieval: shard replication does not compose with index deduplication " +
			"(dedup key sets are per fixed (owner, consumer) pair; replica failover re-routes pairs per batch)")
	case c.AdaptivePlacement && c.RebalanceEvery <= 0:
		return fmt.Errorf("retrieval: AdaptivePlacement needs a positive RebalanceEvery epoch length, have %d", c.RebalanceEvery)
	case !c.AdaptivePlacement && c.RebalanceEvery != 0:
		return fmt.Errorf("retrieval: RebalanceEvery %d is set but AdaptivePlacement is off", c.RebalanceEvery)
	case c.HotTables < 0:
		return fmt.Errorf("retrieval: negative HotTables %d", c.HotTables)
	case c.HotTables > 0 && !c.AdaptivePlacement:
		return fmt.Errorf("retrieval: HotTables mirrors the hottest OBSERVED tables; it requires AdaptivePlacement")
	case c.HotTables >= c.TotalTables:
		return fmt.Errorf("retrieval: HotTables %d must leave at least one unmirrored table (%d total)",
			c.HotTables, c.TotalTables)
	case c.AdaptivePlacement && c.Replicas > 1:
		return fmt.Errorf("retrieval: adaptive placement does not compose with full-mirror Replicas " +
			"(both re-route reads; use HotTables for selective replication instead)")
	case c.HotSetDriftEvery < 0:
		return fmt.Errorf("retrieval: negative HotSetDriftEvery %d", c.HotSetDriftEvery)
	case c.WirePrecision != FP32 && c.WirePrecision != FP16 && c.WirePrecision != Int8:
		return fmt.Errorf("retrieval: unknown WirePrecision %d (want FP32, FP16 or Int8)", c.WirePrecision)
	}
	if c.PerFeatureRows != nil {
		for f, r := range c.PerFeatureRows {
			if r <= 0 {
				return fmt.Errorf("retrieval: table %d has non-positive rows %d", f, r)
			}
		}
	}
	if c.CustomPlan != nil {
		seen := make(map[int]bool, c.TotalTables)
		for g, ids := range c.CustomPlan {
			for _, id := range ids {
				if id < 0 || id >= c.TotalTables {
					return fmt.Errorf("retrieval: CustomPlan GPU %d references table %d (have %d)", g, id, c.TotalTables)
				}
				if seen[id] {
					return fmt.Errorf("retrieval: CustomPlan assigns table %d twice", id)
				}
				seen[id] = true
			}
		}
		if len(seen) != c.TotalTables {
			return fmt.Errorf("retrieval: CustomPlan covers %d of %d tables", len(seen), c.TotalTables)
		}
	}
	return nil
}

// tableRows returns the hash size of table fid.
func (c Config) tableRows(fid int) int {
	if c.PerFeatureRows != nil {
		return c.PerFeatureRows[fid]
	}
	return c.Rows
}

// VectorBytes returns the uncompressed (fp32) payload of one embedding
// vector — the HBM-side unit every gather, expand and unpack kernel works in.
func (c Config) VectorBytes() int { return 4 * c.Dim }

// WireVectorBytes returns the encoded payload of one embedding vector as it
// crosses NVLink or the NIC under WirePrecision: 4d for fp32, 2d for fp16,
// d+4 for int8 (one byte per element plus the row's fp32 absmax scale).
func (c Config) WireVectorBytes() int {
	switch c.WirePrecision {
	case FP16:
		return 2 * c.Dim
	case Int8:
		return c.Dim + 4
	}
	return 4 * c.Dim
}

// WireCodecActive reports whether a transport codec is configured — the
// fp32 default skips every encode/decode code path entirely.
func (c Config) WireCodecActive() bool { return c.WirePrecision != FP32 }

// tableBytesAll returns every table's device-memory footprint, indexed by
// global feature id — the placement layer's migration and capacity unit.
func (c Config) tableBytesAll() []int64 {
	out := make([]int64, c.TotalTables)
	for fid := range out {
		out[fid] = int64(c.tableRows(fid)) * int64(c.Dim) * 4
	}
	return out
}

// cacheSlotBytes is the per-cached-row device memory footprint: the row
// values plus index/metadata overhead (key, slot bookkeeping).
func (c Config) cacheSlotBytes() int { return c.Dim*4 + 16 }

// CacheSlots returns the per-GPU hot-row cache capacity in rows implied by
// CacheFraction against the device's memory capacity, capped at the total
// row population (a cache bigger than the tables is pointless) and floored
// at one slot when the cache is enabled at all. 0 means disabled.
func (c Config) CacheSlots(g gpu.Params) int {
	if c.CacheFraction <= 0 {
		return 0
	}
	slots := int(c.CacheFraction * float64(g.MemoryCapacity) / float64(c.cacheSlotBytes()))
	var population int64
	for fid := 0; fid < c.TotalTables; fid++ {
		population += int64(c.tableRows(fid))
	}
	if int64(slots) > population {
		slots = int(population)
	}
	if slots < 1 {
		slots = 1
	}
	return slots
}

// WorkloadConfig returns the input generator configuration the run draws
// its batches from.
func (c Config) WorkloadConfig() workload.Config {
	return workload.Config{
		NumFeatures:          c.TotalTables,
		BatchSize:            c.BatchSize,
		MinPooling:           c.MinPooling,
		MaxPooling:           c.MaxPooling,
		PerFeatureMaxPooling: c.PerFeatureMaxPooling,
		NullProbability:      c.NullProbability,
		IndexSpace:           int64(c.Rows),
		Distribution:         c.Distribution,
		ZipfExponent:         c.ZipfExponent,
		HotSetDriftEvery:     c.HotSetDriftEvery,
		NumDense:             13,
		Seed:                 c.Seed,
	}
}

// SkewedPooling returns a per-feature max-pooling vector where hotFraction
// of the features carry hotMax pooling and the rest keep coldMax — the
// heterogeneous-feature workload of the sharding experiments.
func SkewedPooling(totalTables int, hotFraction float64, hotMax, coldMax int) []int {
	out := make([]int, totalTables)
	hot := int(float64(totalTables) * hotFraction)
	for f := range out {
		if f < hot {
			out[f] = hotMax
		} else {
			out[f] = coldMax
		}
	}
	return out
}

// WeakScalingConfig returns the paper's §IV-A weak-scaling configuration for
// the given GPU count: 64 tables per GPU, 1M rows, d=64, batch 16384,
// pooling U[1,128], 100 batches.
func WeakScalingConfig(gpus int) Config {
	return Config{
		GPUs:            gpus,
		TotalTables:     64 * gpus,
		Rows:            1_000_000,
		Dim:             64,
		BatchSize:       16384,
		MinPooling:      1,
		MaxPooling:      128,
		Batches:         100,
		Seed:            2024,
		ChunksPerKernel: 64,
	}
}

// StrongScalingConfig returns the paper's §IV-B strong-scaling
// configuration: 96 tables total, 1M rows, d=64, batch 16384, pooling
// U[1,32], 100 batches.
func StrongScalingConfig(gpus int) Config {
	cfg := WeakScalingConfig(gpus)
	cfg.TotalTables = 96
	cfg.MaxPooling = 32
	return cfg
}

// CriteoShapedConfig returns a Criteo-style inference configuration: 26
// single-valued sparse features (pooling factor 1), 1M-row tables, d=64 —
// the latency-dominated regime where the EMB layer's cost is overheads,
// not gather bandwidth.
func CriteoShapedConfig(gpus int) Config {
	cfg := WeakScalingConfig(gpus)
	cfg.TotalTables = 26
	cfg.MinPooling = 1
	cfg.MaxPooling = 1
	return cfg
}

// ServingScaleConfig returns the online-serving configuration: a read-heavy,
// Zipf-skewed stream (the regime "Dissecting Embedding Bag Performance in
// DLRM Inference" measures) over a machine-sized table population, with a
// serving-sized device batch. High pooling keeps gather reads — the cost the
// hot-row cache removes — the dominant EMB term.
func ServingScaleConfig(gpus int) Config {
	return Config{
		GPUs:            gpus,
		TotalTables:     32,
		Rows:            262_144,
		Dim:             64,
		BatchSize:       1024,
		MinPooling:      1,
		MaxPooling:      64,
		Batches:         1,
		Seed:            2024,
		ChunksPerKernel: 8,
		Distribution:    workload.Zipf,
		ZipfExponent:    1.05,
	}
}

// MultiNodeConfig returns the multi-node weak-scaling configuration: 16
// tables per GPU over a Zipf-1.2 serving-style stream against 4096-row
// tables, so hot rows recur across the samples of every node and node-level
// deduplication — each remote row crossing the NIC once per node — has
// traffic to remove. The modest pooling range U[1,8] keeps the dense
// all-to-all payload comparable to the row-reuse volume; at paper-scale
// pooling (U[1,128]) pooled outputs compress dense traffic so far below the
// raw gather volume that per-row wire dedup cannot win, which is exactly the
// regime distinction §IV's pooling sweep measures.
func MultiNodeConfig(nodes, gpusPerNode int) Config {
	gpus := nodes * gpusPerNode
	return Config{
		GPUs:            gpus,
		TotalTables:     16 * gpus,
		Rows:            4096,
		Dim:             64,
		BatchSize:       8192,
		MinPooling:      1,
		MaxPooling:      8,
		Batches:         20,
		Seed:            2024,
		ChunksPerKernel: 32,
		Distribution:    workload.Zipf,
		ZipfExponent:    1.2,
		Dedup:           true,
	}
}

// MultiNodeStrongConfig is MultiNodeConfig with the table population fixed
// at 64 tables total while nodes are added (strong scaling).
func MultiNodeStrongConfig(nodes, gpusPerNode int) Config {
	cfg := MultiNodeConfig(nodes, gpusPerNode)
	cfg.TotalTables = 64
	return cfg
}

// TestScaleConfig returns a small functional configuration used by
// correctness tests and the quickstart example: every backend's outputs are
// bit-comparable against the serial reference at this scale.
func TestScaleConfig(gpus int) Config {
	return Config{
		GPUs:            gpus,
		TotalTables:     6,
		Rows:            128,
		Dim:             8,
		BatchSize:       32,
		MinPooling:      0,
		MaxPooling:      5,
		Batches:         3,
		Seed:            7,
		ChunksPerKernel: 4,
		Functional:      true,
		NullProbability: 0.1,
	}
}
