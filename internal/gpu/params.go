// Package gpu models a CUDA-class accelerator well enough to time the
// paper's workloads: an HBM bandwidth/occupancy cost model for kernels,
// kernel-launch and stream-synchronisation overheads, in-order streams, and
// a device memory allocator. The model executes no math itself — functional
// work happens in internal/tensor — it only answers "how long does this
// kernel take on this device", which is the entire game for reproducing the
// paper's timing results.
package gpu

import "pgasemb/internal/sim"

// Params describes one GPU model. Defaults (V100Params) are calibrated to a
// 32 GB Tesla V100 as found in the paper's DGX testbed; see DESIGN.md §5 and
// EXPERIMENTS.md for the calibration story.
type Params struct {
	// Name labels the device model in logs.
	Name string

	// MemoryCapacity is the device memory size in bytes (V100: 32 GB).
	MemoryCapacity int64

	// HBMBandwidth is peak device-memory bandwidth in bytes/second.
	HBMBandwidth float64

	// GatherEfficiency is the fraction of peak bandwidth achieved by
	// embedding-row gathers: random 256 B reads across a multi-GB working
	// set (DRAM row misses, no L2 reuse).
	GatherEfficiency float64

	// StreamEfficiency is the fraction of peak bandwidth achieved by
	// long contiguous reads/writes (output stores, memcpy-like kernels).
	StreamEfficiency float64

	// HotRowEfficiency is the fraction of peak bandwidth achieved by
	// gathers from the serving-side hot-row cache. The cache holds the
	// most-frequent rows of a skewed stream in a working set small enough
	// to live mostly in L2 (the HugeCTR HPS argument for per-GPU embedding
	// caches), so cached reads run far closer to streaming than the
	// DRAM-row-miss gathers of the full tables. 0 means "no distinct hot
	// path": cached reads are priced at GatherEfficiency.
	HotRowEfficiency float64

	// UnpackEfficiency is the fraction of peak bandwidth achieved by the
	// post-collective unpack/rearrangement step. This is deliberately far
	// below StreamEfficiency: in the PyTorch baseline the "unpack" is a
	// chain of framework-level tensor ops (split/permute/cat/copy), each
	// with its own launch and intermediate traffic, not one tight kernel.
	// The paper's measured sync+unpack component implies an effective
	// throughput in the tens of GB/s, which this parameter reproduces.
	UnpackEfficiency float64

	// PeakFLOPS is peak fp32 throughput in FLOP/s, used by the MLP model.
	PeakFLOPS float64

	// MLPEfficiency is the fraction of PeakFLOPS achieved by the dense
	// layers (GEMM efficiency at DLRM-typical sizes).
	MLPEfficiency float64

	// KernelLaunch is the host-side cost of launching one kernel.
	KernelLaunch sim.Duration

	// StreamSync is the host-side cost of synchronising a stream (the
	// cudaStreamSynchronize the paper identifies as overhead).
	StreamSync sim.Duration

	// SaturationItems is the number of parallel work items (output
	// vectors, i.e. batch × local tables) needed to reach full memory
	// throughput. Below it, achieved throughput scales linearly with the
	// available parallelism — the latency-limited regime — so splitting a
	// fixed problem across more GPUs stops helping once the per-GPU work
	// drops under this point: runtime plateaus at a constant, which is
	// exactly the paper's strong-scaling observation ("computation time
	// decreases with 2 GPUs and stays roughly the same beyond", with ncu
	// showing <60% throughput).
	SaturationItems float64

	// ItemOverhead is the fixed kernel cost per output vector (bag setup,
	// offset reads, pooling-loop bookkeeping), independent of the bag
	// size. It is why the strong-scaling workload (short bags, pooling
	// ≤32) moves fewer bytes per unit time than the weak-scaling one
	// (pooling ≤128).
	ItemOverhead sim.Duration

	// RemoteIssueOverhead is the extra kernel time per one-sided remote
	// store issued from inside a kernel (register-to-NVLink path, amortised
	// per 256 B message at warp granularity).
	RemoteIssueOverhead sim.Duration

	// RemotePeerChunkOverhead is the extra fused-kernel time per compute
	// chunk per GPU the kernel stores to: interleaving one-sided stores
	// across several destinations shortens per-destination write bursts and
	// costs some write-combining efficiency. A node-staged route stores to
	// one stage GPU per remote node, not to every consumer there. This term
	// gives the PGAS backend the mild runtime growth with GPU count the
	// paper observes (its "small messages are not bandwidth-efficient"
	// overhead that stays hidden until it isn't).
	RemotePeerChunkOverhead sim.Duration

	// UnpackFixed is the per-batch framework overhead of the baseline's
	// post-collective rearrangement (op dispatch, allocator traffic).
	UnpackFixed sim.Duration

	// UnpackPerSegment is the additional per-source-rank overhead of the
	// rearrangement: each peer's received segment is spliced by its own
	// chain of tensor ops, so the cost grows with GPU count even when the
	// received byte count shrinks (the paper's strong-scaling sync+unpack
	// trend).
	UnpackPerSegment sim.Duration
}

// V100Params returns parameters calibrated to a 32 GB Tesla V100 in a DGX
// chassis — the paper's testbed.
func V100Params() Params {
	return Params{
		Name:                    "Tesla-V100-SXM2-32GB",
		MemoryCapacity:          32 << 30,
		HBMBandwidth:            900e9,
		GatherEfficiency:        0.49,
		StreamEfficiency:        0.85,
		HotRowEfficiency:        0.85,
		UnpackEfficiency:        0.0256,
		PeakFLOPS:               14e12,
		MLPEfficiency:           0.55,
		KernelLaunch:            5 * sim.Microsecond,
		StreamSync:              12 * sim.Microsecond,
		SaturationItems:         0.94e6,
		ItemOverhead:            26.5 * sim.Nanosecond,
		RemoteIssueOverhead:     1.6 * sim.Nanosecond,
		RemotePeerChunkOverhead: 25 * sim.Microsecond,
		UnpackFixed:             2 * sim.Millisecond,
		UnpackPerSegment:        13 * sim.Millisecond,
	}
}

// Validate reports whether the parameter set is physically meaningful.
func (p Params) Validate() error {
	switch {
	case p.MemoryCapacity <= 0:
		return paramErr("MemoryCapacity")
	case p.HBMBandwidth <= 0:
		return paramErr("HBMBandwidth")
	case p.GatherEfficiency <= 0 || p.GatherEfficiency > 1:
		return paramErr("GatherEfficiency")
	case p.StreamEfficiency <= 0 || p.StreamEfficiency > 1:
		return paramErr("StreamEfficiency")
	case p.HotRowEfficiency < 0 || p.HotRowEfficiency > 1:
		return paramErr("HotRowEfficiency")
	case p.UnpackEfficiency <= 0 || p.UnpackEfficiency > 1:
		return paramErr("UnpackEfficiency")
	case p.PeakFLOPS <= 0:
		return paramErr("PeakFLOPS")
	case p.MLPEfficiency <= 0 || p.MLPEfficiency > 1:
		return paramErr("MLPEfficiency")
	case p.KernelLaunch < 0:
		return paramErr("KernelLaunch")
	case p.StreamSync < 0:
		return paramErr("StreamSync")
	case p.SaturationItems < 0:
		return paramErr("SaturationItems")
	case p.ItemOverhead < 0:
		return paramErr("ItemOverhead")
	case p.RemoteIssueOverhead < 0:
		return paramErr("RemoteIssueOverhead")
	case p.RemotePeerChunkOverhead < 0:
		return paramErr("RemotePeerChunkOverhead")
	case p.UnpackFixed < 0:
		return paramErr("UnpackFixed")
	case p.UnpackPerSegment < 0:
		return paramErr("UnpackPerSegment")
	}
	return nil
}

type paramError struct{ field string }

func paramErr(field string) error { return paramError{field} }

func (e paramError) Error() string { return "gpu: invalid parameter " + e.field }
