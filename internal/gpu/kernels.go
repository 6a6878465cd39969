package gpu

import (
	"fmt"

	"pgasemb/internal/sim"
)

// The kernel cost model. Each cost is a pure function of the parameter set:
// the Params methods price a kernel on a healthy device, and a Device's
// methods scale that price by its straggler slowdown. Host-side planning
// (the route plan's pricing) calls the Params forms, so its decisions never
// depend on which device is slowed.

// occupancyUtil returns the fraction of asymptotic throughput a kernel with
// the given number of independent work items achieves: linear in the
// available parallelism up to SaturationItems, 1 beyond. The two regimes
// match the paper's observations: the weak-scaling per-GPU workload (≈1M
// output vectors) sits at saturation, while the strong-scaling per-GPU
// workload (≤0.8M) falls below it — there, runtime is the constant
// (work/parallelism) × (saturation/throughput), so adding GPUs stops
// helping: the "latency-limited beyond 2 GPUs" plateau.
func (p Params) occupancyUtil(workItems int) float64 {
	if workItems <= 0 {
		return 0
	}
	if p.SaturationItems <= 0 {
		return 1
	}
	u := float64(workItems) / p.SaturationItems
	if u > 1 {
		return 1
	}
	return u
}

// GatherKernelCost models an embedding lookup+pooling kernel: readBytes of
// random 256 B-granularity gathers plus writeBytes of streaming output
// stores plus a fixed per-item cost, executed by workItems independent
// output vectors at the occupancy-derived utilisation: a kernel of one chunk.
func (p Params) GatherKernelCost(readBytes, writeBytes float64, workItems int) sim.Duration {
	return p.GatherKernelChunkCost(readBytes, writeBytes, workItems, workItems)
}

// GatherKernelChunkCost prices one progress chunk of a larger gather
// kernel: the chunk moves its own traffic and pays per-item overhead for
// its own chunkItems, but runs at the utilisation set by the WHOLE kernel's
// parallelism (kernelItems) — chunking is a bookkeeping quantum of the
// timing model, not a change in occupancy. Summing chunk costs over a
// kernel reproduces GatherKernelCost of the totals exactly.
func (p Params) GatherKernelChunkCost(readBytes, writeBytes float64, chunkItems, kernelItems int) sim.Duration {
	if readBytes < 0 || writeBytes < 0 {
		panic(fmt.Sprintf("gpu: negative chunk traffic (%g, %g)", readBytes, writeBytes))
	}
	if chunkItems < 0 || chunkItems > kernelItems {
		panic(fmt.Sprintf("gpu: chunk items %d outside kernel items %d", chunkItems, kernelItems))
	}
	util := p.occupancyUtil(kernelItems)
	if util == 0 {
		return 0
	}
	read := readBytes / (p.HBMBandwidth * p.GatherEfficiency)
	write := writeBytes / (p.HBMBandwidth * p.StreamEfficiency)
	items := sim.Duration(sim.Duration(chunkItems) * p.ItemOverhead)
	return (read + write + items) / util
}

// GatherKernelCost is Params.GatherKernelCost on this device.
func (d *Device) GatherKernelCost(readBytes, writeBytes float64, workItems int) sim.Duration {
	return d.GatherKernelChunkCost(readBytes, writeBytes, workItems, workItems)
}

// GatherKernelChunkCost is Params.GatherKernelChunkCost on this device.
func (d *Device) GatherKernelChunkCost(readBytes, writeBytes float64, chunkItems, kernelItems int) sim.Duration {
	return sim.Duration(d.params.GatherKernelChunkCost(readBytes, writeBytes, chunkItems, kernelItems) * sim.Duration(d.slow))
}

// HotReadEquivalent converts bytes gathered from the hot-row cache into the
// number of GatherEfficiency-priced bytes that cost the same time, so a
// kernel serving a mix of cold-table and cached rows can be priced with one
// GatherKernelCost call: pass tableBytes + HotReadEquivalent(cacheBytes) as
// readBytes. With HotRowEfficiency unset the conversion is the identity.
func (p Params) HotReadEquivalent(bytes float64) float64 {
	if bytes < 0 {
		panic(fmt.Sprintf("gpu: negative hot-read bytes %g", bytes))
	}
	eff := p.HotRowEfficiency
	if eff <= 0 {
		return bytes
	}
	return bytes * p.GatherEfficiency / eff
}

// ExpandKernelCost prices the inverse-expansion kernel of the dedup path:
// refs pooled-index references are resolved against a small staged buffer of
// unique rows (received over the wire or staged by the gather kernel) and
// pooled into outItems output vectors of vecBytes each. Unlike the gather
// kernel there is no index hashing, bag walking or remote issuing per item —
// expansion streams a precomputed int32 position map and accumulates
// vectors, so it is a pure bandwidth-bound kernel (like copy and unpack):
// the staged working set — one batch's unique rows — is L2-resident, so
// re-reads are priced at the hot-row efficiency (falling back to the gather
// efficiency when no hot path is modeled); outputs and the position map
// stream at the streaming efficiency.
func (p Params) ExpandKernelCost(refs int64, outItems, vecBytes int) sim.Duration {
	if refs < 0 || outItems < 0 {
		panic(fmt.Sprintf("gpu: negative expand inputs (%d, %d)", refs, outItems))
	}
	readEff := p.HotRowEfficiency
	if readEff <= 0 {
		readEff = p.GatherEfficiency
	}
	read := float64(refs) * float64(vecBytes) / (p.HBMBandwidth * readEff)
	write := (float64(float64(outItems)*float64(vecBytes)) + float64(float64(refs)*4)) /
		(p.HBMBandwidth * p.StreamEfficiency)
	return sim.Duration(read) + sim.Duration(write)
}

// ExpandKernelCost is Params.ExpandKernelCost on this device.
func (d *Device) ExpandKernelCost(refs int64, outItems, vecBytes int) sim.Duration {
	return sim.Duration(d.params.ExpandKernelCost(refs, outItems, vecBytes) * sim.Duration(d.slow))
}

// RemoteIssueCost returns the extra kernel time for issuing n one-sided
// remote stores from inside a kernel. This is the PGAS backend's only
// compute-side overhead relative to the local-only kernel.
func (p Params) RemoteIssueCost(n int) sim.Duration {
	if n < 0 {
		panic(fmt.Sprintf("gpu: negative remote store count %d", n))
	}
	return sim.Duration(sim.Duration(n) * p.RemoteIssueOverhead)
}

// RemoteIssueCost is Params.RemoteIssueCost on this device.
func (d *Device) RemoteIssueCost(n int) sim.Duration {
	return sim.Duration(d.params.RemoteIssueCost(n) * sim.Duration(d.slow))
}

// UnpackKernelCost models the post-collective unpack/rearrangement of
// receivedBytes (from segments peer source ranks) into the layout the next
// layer expects: a fixed framework cost, a per-source-segment op-chain cost,
// and read+write traffic at the (low) unpack efficiency.
func (p Params) UnpackKernelCost(receivedBytes float64, segments int) sim.Duration {
	if receivedBytes < 0 {
		panic(fmt.Sprintf("gpu: negative unpack bytes %g", receivedBytes))
	}
	if segments < 0 {
		panic(fmt.Sprintf("gpu: negative unpack segments %d", segments))
	}
	moved := 2 * receivedBytes // read staging + write destination
	return p.UnpackFixed +
		sim.Duration(sim.Duration(segments)*p.UnpackPerSegment) +
		moved/(p.HBMBandwidth*p.UnpackEfficiency)
}

// UnpackKernelCost is Params.UnpackKernelCost on this device.
func (d *Device) UnpackKernelCost(receivedBytes float64, segments int) sim.Duration {
	return sim.Duration(d.params.UnpackKernelCost(receivedBytes, segments) * sim.Duration(d.slow))
}

// EncodeKernelCost models the owner-side wire-precision encode: rawBytes of
// fp32 rows are read and encBytes of compressed rows written, a streaming
// bandwidth-bound kernel (quantization arithmetic hides under the memory
// traffic, like copy and unpack).
func (d *Device) EncodeKernelCost(rawBytes, encBytes float64) sim.Duration {
	if rawBytes < 0 || encBytes < 0 {
		panic(fmt.Sprintf("gpu%d: negative encode bytes (%g, %g)", d.id, rawBytes, encBytes))
	}
	return (rawBytes + encBytes) / (d.params.HBMBandwidth * d.params.StreamEfficiency) * sim.Duration(d.slow)
}

// DecodeKernelCost models the consumer-side decode: encBytes of compressed
// rows read, rawBytes of fp32 rows written. Symmetric to EncodeKernelCost.
func (d *Device) DecodeKernelCost(encBytes, rawBytes float64) sim.Duration {
	if encBytes < 0 || rawBytes < 0 {
		panic(fmt.Sprintf("gpu%d: negative decode bytes (%g, %g)", d.id, encBytes, rawBytes))
	}
	return (encBytes + rawBytes) / (d.params.HBMBandwidth * d.params.StreamEfficiency) * sim.Duration(d.slow)
}

// MLPKernelCost models a dense layer batch on a healthy device: flops of
// fp32 work, plus the activation/weight traffic if it dominates (roofline
// max of the two).
func (p Params) MLPKernelCost(flops, bytes float64) sim.Duration {
	compute := flops / (p.PeakFLOPS * p.MLPEfficiency)
	memory := bytes / (p.HBMBandwidth * p.StreamEfficiency)
	return max(compute, memory)
}

// MLPKernelCost is Params.MLPKernelCost at the device's current slowdown.
func (d *Device) MLPKernelCost(flops, bytes float64) sim.Duration {
	if flops < 0 || bytes < 0 {
		panic(fmt.Sprintf("gpu%d: negative MLP cost inputs (%g, %g)", d.id, flops, bytes))
	}
	return d.params.MLPKernelCost(flops, bytes) * sim.Duration(d.slow)
}
