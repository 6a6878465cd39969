package experiments

import (
	"context"
	"fmt"

	"pgasemb/internal/metrics"
	"pgasemb/internal/retrieval"
	"pgasemb/internal/sim"
)

// The multi-node scaling experiment: the paper's §V future-work setting,
// where the machine is N NVLink nodes joined by NICs. Both backends run at
// every node count — the baseline over hierarchical collectives, PGAS over
// the proxy-coalesced inter-node one-sided path — and the rendered tables
// carry NIC traffic columns next to the usual speedups, since the byte
// volume crossing the network is the quantity the node-level deduplication
// exists to shrink.

// MultiNodeOptions tunes the multi-node sweep.
type MultiNodeOptions struct {
	Sweep
	// MaxNodes bounds the sweep (default 4).
	MaxNodes int
	// GPUsPerNode is each node's GPU count (default 4).
	GPUsPerNode int
	// Batches overrides the per-run batch count (0 = the configuration's).
	Batches int
	// BatchSize overrides the per-run global batch size (0 = the
	// configuration's). Mainly for tests and CI smoke runs.
	BatchSize int
	// HW optionally overrides the base hardware model; its Nodes field is
	// set per sweep point. Zero value = retrieval.ClusterHardware.
	HW *retrieval.HardwareParams
	// WirePrecision sets the wire transport format for embedding rows at
	// every sweep point (FP32 = uncompressed, the default). Both columns
	// run at the same precision, so the speedups stay like-for-like.
	WirePrecision retrieval.Precision
}

// MultiNodePoint holds one node count's pair of runs.
type MultiNodePoint struct {
	Nodes    int
	GPUs     int
	Baseline *retrieval.Result
	PGAS     *retrieval.Result
}

// Speedup returns baseline/PGAS total time.
func (p MultiNodePoint) Speedup() float64 {
	return metrics.Speedup(p.Baseline.TotalTime, p.PGAS.TotalTime)
}

// MultiNodeResult is a full sweep over node counts.
type MultiNodeResult struct {
	Kind        ScalingKind
	GPUsPerNode int
	Points      []MultiNodePoint
}

// Point returns the entry for the given node count.
func (r *MultiNodeResult) Point(nodes int) MultiNodePoint {
	for _, p := range r.Points {
		if p.Nodes == nodes {
			return p
		}
	}
	panic(fmt.Sprintf("experiments: no point for %d nodes", nodes))
}

// RunMultiNode executes the multi-node scaling sweep with both backends.
// Every (node count, backend) run dispatches onto the worker pool; each node
// count shares one immutable spec, and results land in an index-addressed
// slice, so the tables are byte-identical at any Parallel. It returns early
// when ctx is done.
func RunMultiNode(ctx context.Context, kind ScalingKind, opts MultiNodeOptions) (*MultiNodeResult, error) {
	maxNodes := orDefault(opts.MaxNodes, 4)
	perNode := orDefault(opts.GPUsPerNode, 4)
	specs := make([]*retrieval.SystemSpec, maxNodes)
	for i := range specs {
		nodes := i + 1
		cfg := retrieval.MultiNodeConfig(nodes, perNode)
		if kind == StrongScaling {
			cfg = retrieval.MultiNodeStrongConfig(nodes, perNode)
		}
		cfg.WirePrecision = opts.WirePrecision
		fail := func(err error) error {
			return fmt.Errorf("experiments: multi-node %s scaling, %d nodes: %w", kind, nodes, err)
		}
		cfg, err := resize(cfg, opts.Batches, opts.BatchSize)
		if err != nil {
			return nil, fail(err)
		}
		hw := hardware(opts.HW, nodes)
		hw.Nodes = nodes
		if specs[i], err = retrieval.NewSystemSpec(cfg, hw); err != nil {
			return nil, fail(err)
		}
	}
	results, err := versus(ctx, opts.Sweep, fmt.Sprintf("multinode-%s-scaling", kind), maxNodes,
		func(p int, b retrieval.Backend) (*retrieval.Result, error) {
			r, err := runSpec(ctx, specs[p], b, specs[p].Config().Seed)
			if err != nil {
				return nil, fmt.Errorf("experiments: multi-node %s scaling, %d nodes, %s: %w", kind, p+1, b.Name(), err)
			}
			return r, nil
		})
	if err != nil {
		return nil, err
	}
	res := &MultiNodeResult{Kind: kind, GPUsPerNode: perNode}
	for i := range specs {
		res.Points = append(res.Points, MultiNodePoint{
			Nodes:    i + 1,
			GPUs:     (i + 1) * perNode,
			Baseline: results[2*i],
			PGAS:     results[2*i+1],
		})
	}
	return res, nil
}

// gigabytes renders a byte count as GB with enough precision for small
// smoke-run volumes.
func gigabytes(b float64) string {
	return fmt.Sprintf("%.3f", b/1e9)
}

// ScalingTable renders the sweep: per node count, both totals, the speedup,
// and the NIC wire traffic each scheme put on the network.
func (r *MultiNodeResult) ScalingTable() *Table {
	t := &Table{
		Title: fmt.Sprintf("Multi-node %s scaling (%d GPUs per node)", r.Kind, r.GPUsPerNode),
		Headers: []string{"Nodes", "GPUs", "Baseline", "PGAS fused", "Speedup",
			"Base NIC GB", "PGAS NIC GB", "NIC ratio"},
	}
	for _, p := range r.Points {
		ratio := "-"
		if p.Baseline.NICWireBytes > 0 {
			ratio = fmt.Sprintf("%.3f", p.PGAS.NICWireBytes/p.Baseline.NICWireBytes)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p.Nodes),
			fmt.Sprintf("%d", p.GPUs),
			sim.FormatTime(p.Baseline.TotalTime),
			sim.FormatTime(p.PGAS.TotalTime),
			fmt.Sprintf("%.2fx", p.Speedup()),
			gigabytes(p.Baseline.NICWireBytes),
			gigabytes(p.PGAS.NICWireBytes),
			ratio,
		})
	}
	return t
}

// CommTable renders the communication decomposition: the baseline's
// communication component next to each scheme's NIC message counts, the view
// that shows inter-node time growing with node count.
func (r *MultiNodeResult) CommTable() *Table {
	t := &Table{
		Title: fmt.Sprintf("Multi-node %s scaling: inter-node communication", r.Kind),
		Headers: []string{"Nodes", "Base Comm", "Base NIC msgs", "PGAS NIC msgs",
			"Base NIC payload GB", "PGAS NIC payload GB"},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p.Nodes),
			sim.FormatTime(p.Baseline.Breakdown.Get(retrieval.CompComm)),
			fmt.Sprintf("%d", p.Baseline.NICMessages),
			fmt.Sprintf("%d", p.PGAS.NICMessages),
			gigabytes(p.Baseline.NICPayloadBytes),
			gigabytes(p.PGAS.NICPayloadBytes),
		})
	}
	return t
}
