package experiments

import (
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

// multiNodeSweep declares the multi-node scaling sweep on 1 .. maxNodes
// nodes of perNode GPUs: each node count's baseline run, then its run on
// acc. A positive batches or batchSize replaces the configuration's, and
// every point carries embedding rows on the wire at prec.
func multiNodeSweep(kind ScalingKind, maxNodes, perNode, batches, batchSize int, prec retrieval.Precision,
	acc retrieval.Backend) sweep[*MultiNodeResult] {
	var pts []point
	for nodes := 1; nodes <= maxNodes; nodes++ {
		cfg := retrieval.MultiNodeConfig(nodes, perNode)
		if kind == StrongScaling {
			cfg = retrieval.MultiNodeStrongConfig(nodes, perNode)
		}
		cfg.WirePrecision = prec
		pts = append(pts, pair(sized(cfg, batches, batchSize), retrieval.ClusterHardware(nodes), acc)...)
	}
	return sweep[*MultiNodeResult]{pts, func(outs []outcome) *MultiNodeResult {
		res := &MultiNodeResult{Kind: kind, GPUsPerNode: perNode}
		for i := 0; i < len(outs); i += 2 {
			nodes := i/2 + 1
			res.Points = append(res.Points, MultiNodePoint{
				Nodes:    nodes,
				GPUs:     nodes * perNode,
				Baseline: outs[i].sys,
				PGAS:     outs[i+1].sys,
			})
		}
		return res
	}}
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
