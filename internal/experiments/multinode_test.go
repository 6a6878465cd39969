package experiments

import (
	"testing"

	"pgasemb/internal/retrieval"
)

// The multi-node tests run the full multi-node batch (the node-dedup win
// needs the cross-sample reuse of the real batch size), trimmed to 2
// batches and 2 GPUs per node so the sweeps stay test-sized.
const (
	mnPerNode = 2
	mnBatches = 2
)

func multiNodeTestSweep(kind ScalingKind, maxNodes int) sweep[*MultiNodeResult] {
	return multiNodeSweep(kind, maxNodes, mnPerNode, mnBatches, 0, retrieval.FP32, &retrieval.PGASFused{})
}

// The sweep's acceptance criteria: single-node results identical to the
// fabric-free machine, inter-node communication growing with node count, and
// the proxy-coalesced PGAS path putting strictly fewer bytes on the NICs
// than the hierarchical baseline.
func TestMultiNodeWeakScaling(t *testing.T) {
	const maxNodes = 3
	res := runSweep(t, multiNodeTestSweep(WeakScaling, maxNodes))
	if len(res.Points) != maxNodes {
		t.Fatalf("got %d points, want %d", len(res.Points), maxNodes)
	}

	// 1 node: the NICs carry nothing, and the sweep point matches a one-off
	// run of the default machine exactly.
	p1 := res.Point(1)
	if p1.Baseline.NICWireBytes != 0 || p1.PGAS.NICWireBytes != 0 {
		t.Errorf("1-node sweep point moved NIC bytes: base %g, pgas %g",
			p1.Baseline.NICWireBytes, p1.PGAS.NICWireBytes)
	}
	cfg := retrieval.MultiNodeConfig(1, mnPerNode)
	cfg.Batches = mnBatches
	for _, c := range []struct {
		backend retrieval.Backend
		got     *retrieval.Result
	}{
		{&retrieval.Baseline{}, p1.Baseline},
		{&retrieval.PGASFused{}, p1.PGAS},
	} {
		sys, err := retrieval.NewSystem(cfg, retrieval.DefaultHardware())
		if err != nil {
			t.Fatal(err)
		}
		plain, err := sys.Run(c.backend)
		if err != nil {
			t.Fatal(err)
		}
		if plain.TotalTime != c.got.TotalTime {
			t.Errorf("%s: 1-node sweep total %g != default machine %g",
				c.backend.Name(), c.got.TotalTime, plain.TotalTime)
		}
	}

	// Inter-node communication grows with node count, and PGAS ships
	// strictly fewer NIC bytes than the baseline at every multi-node point.
	prevComm := p1.Baseline.Breakdown.Get(retrieval.CompComm)
	for _, p := range res.Points[1:] {
		comm := p.Baseline.Breakdown.Get(retrieval.CompComm)
		if comm <= prevComm {
			t.Errorf("%d nodes: baseline comm %g did not grow from %g", p.Nodes, comm, prevComm)
		}
		prevComm = comm
		if p.Baseline.NICWireBytes <= 0 || p.PGAS.NICWireBytes <= 0 {
			t.Fatalf("%d nodes: no NIC traffic recorded", p.Nodes)
		}
		if p.PGAS.NICWireBytes >= p.Baseline.NICWireBytes {
			t.Errorf("%d nodes: PGAS NIC bytes %g not fewer than baseline %g",
				p.Nodes, p.PGAS.NICWireBytes, p.Baseline.NICWireBytes)
		}
	}

	// Tables render without panicking and carry one row per point.
	if rows := len(res.ScalingTable().Rows); rows != maxNodes {
		t.Errorf("scaling table has %d rows, want %d", rows, maxNodes)
	}
	if rows := len(res.CommTable().Rows); rows != maxNodes {
		t.Errorf("comm table has %d rows, want %d", rows, maxNodes)
	}
}

func TestMultiNodeStrongScaling(t *testing.T) {
	p := runSweep(t, multiNodeTestSweep(StrongScaling, 2)).Point(2)
	if p.PGAS.NICWireBytes >= p.Baseline.NICWireBytes {
		t.Errorf("strong scaling, 2 nodes: PGAS NIC bytes %g not fewer than baseline %g",
			p.PGAS.NICWireBytes, p.Baseline.NICWireBytes)
	}
	if p.Speedup() <= 1 {
		t.Errorf("strong scaling, 2 nodes: PGAS not faster than baseline (%.2fx)", p.Speedup())
	}
}

// TestMultiNodeNodeStagedFP16 runs the 4 × 4 fp16 shape no committed
// artifact runs: at batch 1024 every remote node of the 4-node point can be
// node-staged, and the sweep must run to completion with PGAS stores on the
// NICs.
func TestMultiNodeNodeStagedFP16(t *testing.T) {
	for _, kind := range []ScalingKind{WeakScaling, StrongScaling} {
		t.Run(kind.String(), func(t *testing.T) {
			res := runSweep(t, multiNodeSweep(kind, 4, 4, 1, 1024, retrieval.FP16, &retrieval.PGASFused{}))
			if p := res.Point(4); p.PGAS.TotalTime <= 0 || p.PGAS.NICWireBytes <= 0 {
				t.Errorf("4 nodes: PGAS time %g, NIC bytes %g", p.PGAS.TotalTime, p.PGAS.NICWireBytes)
			}
		})
	}
}
