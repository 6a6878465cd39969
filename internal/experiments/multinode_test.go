package experiments

import (
	"context"
	"testing"

	"pgasemb/internal/retrieval"
)

func multiNodeTestOptions() MultiNodeOptions {
	// Full multi-node batch (the node-dedup win needs the cross-sample
	// reuse of the real batch size), trimmed to 2 batches and 2 GPUs per
	// node so the sweep stays test-sized.
	return MultiNodeOptions{MaxNodes: 3, GPUsPerNode: 2, Batches: 2}
}

// The sweep's acceptance criteria: single-node results identical to the
// fabric-free machine, inter-node communication growing with node count, and
// the proxy-coalesced PGAS path putting strictly fewer bytes on the NICs
// than the hierarchical baseline.
func TestMultiNodeWeakScaling(t *testing.T) {
	opts := multiNodeTestOptions()
	res, err := RunMultiNode(context.Background(), WeakScaling, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != opts.MaxNodes {
		t.Fatalf("got %d points, want %d", len(res.Points), opts.MaxNodes)
	}

	// 1 node: the NICs carry nothing, and the sweep point matches a one-off
	// run of the default machine exactly.
	p1 := res.Point(1)
	if p1.Baseline.NICWireBytes != 0 || p1.PGAS.NICWireBytes != 0 {
		t.Errorf("1-node sweep point moved NIC bytes: base %g, pgas %g",
			p1.Baseline.NICWireBytes, p1.PGAS.NICWireBytes)
	}
	cfg := retrieval.MultiNodeConfig(1, opts.GPUsPerNode)
	cfg.Batches = opts.Batches
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
	if rows := len(res.ScalingTable().Rows); rows != opts.MaxNodes {
		t.Errorf("scaling table has %d rows, want %d", rows, opts.MaxNodes)
	}
	if rows := len(res.CommTable().Rows); rows != opts.MaxNodes {
		t.Errorf("comm table has %d rows, want %d", rows, opts.MaxNodes)
	}
}

func TestMultiNodeStrongScaling(t *testing.T) {
	opts := multiNodeTestOptions()
	opts.MaxNodes = 2
	res, err := RunMultiNode(context.Background(), StrongScaling, opts)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Point(2)
	if p.PGAS.NICWireBytes >= p.Baseline.NICWireBytes {
		t.Errorf("strong scaling, 2 nodes: PGAS NIC bytes %g not fewer than baseline %g",
			p.PGAS.NICWireBytes, p.Baseline.NICWireBytes)
	}
	if p.Speedup() <= 1 {
		t.Errorf("strong scaling, 2 nodes: PGAS not faster than baseline (%.2fx)", p.Speedup())
	}
}

// The sweep must be byte-identical at any worker count.
func TestMultiNodeParallelInvariance(t *testing.T) {
	opts := multiNodeTestOptions()
	opts.MaxNodes = 2
	opts.Batches = 1
	opts.Parallel = 1
	serial, err := RunMultiNode(context.Background(), WeakScaling, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Parallel = 4
	parallel, err := RunMultiNode(context.Background(), WeakScaling, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial.Points {
		s, p := serial.Points[i], parallel.Points[i]
		if s.Baseline.TotalTime != p.Baseline.TotalTime || s.PGAS.TotalTime != p.PGAS.TotalTime {
			t.Errorf("%d nodes: totals differ across parallelism", s.Nodes)
		}
		if s.Baseline.NICWireBytes != p.Baseline.NICWireBytes || s.PGAS.NICWireBytes != p.PGAS.NICWireBytes {
			t.Errorf("%d nodes: NIC bytes differ across parallelism", s.Nodes)
		}
	}
}

// TestMultiNodeNodeStagedFP16 runs the 4 × 4 fp16 shape no committed
// artifact runs: at batch 1024 every remote node of the 4-node point can be
// node-staged, and the sweep must run to completion with PGAS stores on the
// NICs.
func TestMultiNodeNodeStagedFP16(t *testing.T) {
	for _, kind := range []ScalingKind{WeakScaling, StrongScaling} {
		t.Run(kind.String(), func(t *testing.T) {
			res, err := RunMultiNode(context.Background(), kind, MultiNodeOptions{
				MaxNodes: 4, GPUsPerNode: 4, Batches: 1, BatchSize: 1024, WirePrecision: retrieval.FP16,
			})
			if err != nil {
				t.Fatal(err)
			}
			if p := res.Point(4); p.PGAS.TotalTime <= 0 || p.PGAS.NICWireBytes <= 0 {
				t.Errorf("4 nodes: PGAS time %g, NIC bytes %g", p.PGAS.TotalTime, p.PGAS.NICWireBytes)
			}
		})
	}
}
