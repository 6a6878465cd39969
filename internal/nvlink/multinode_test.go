package nvlink

import (
	"testing"

	"pgasemb/internal/sim"
)

func TestMultiNodeTopologyGeometry(t *testing.T) {
	topo := MultiNode{Nodes: 2, PerNode: 2, IntraLinks: 2}
	if topo.NumGPUs() != 4 {
		t.Fatalf("NumGPUs = %d", topo.NumGPUs())
	}
	if topo.Node(0) != 0 || topo.Node(1) != 0 || topo.Node(2) != 1 || topo.Node(3) != 1 {
		t.Fatal("node assignment wrong")
	}
	// Intra-node pairs have the NVLink link count.
	if topo.Links(0, 1) != 2 || topo.Links(2, 3) != 2 {
		t.Fatal("intra-node links wrong")
	}
	// Inter-node pairs have one network link.
	if topo.Links(0, 2) != 1 || topo.Links(1, 3) != 1 {
		t.Fatal("inter-node links wrong")
	}
	if topo.Links(1, 1) != 0 {
		t.Fatal("self links must be 0")
	}
	if topo.Class(0, 1) != IntraNode || topo.Class(0, 3) != InterNode {
		t.Fatal("link classes wrong")
	}
}

func TestMultiNodeOutOfRangePanics(t *testing.T) {
	topo := MultiNode{Nodes: 2, PerNode: 2, IntraLinks: 2}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range Links did not panic")
		}
	}()
	topo.Links(0, 7)
}

func TestMultiNodeFabricBandwidths(t *testing.T) {
	env := sim.NewEnv()
	params := DefaultParams()
	f := mustFabric(env, params, MultiNode{Nodes: 2, PerNode: 2, IntraLinks: 2})
	// Intra: 2 x 25 GB/s.
	if got := f.PairBandwidth(0, 1); got != 50e9 {
		t.Fatalf("intra-node bandwidth = %v", got)
	}
	// Inter: the thin network share.
	if got := f.PairBandwidth(0, 2); got != params.InterNodeBandwidth {
		t.Fatalf("inter-node bandwidth = %v", got)
	}
	// Inter-node latency is the network latency.
	end := f.Pipe(0, 2).Offer(0)
	if end != params.InterNodeLatency {
		t.Fatalf("inter-node zero-byte latency = %v, want %v", end, params.InterNodeLatency)
	}
}

func TestMultiNodeFabricRejectsZeroInterBandwidth(t *testing.T) {
	env := sim.NewEnv()
	params := DefaultParams()
	params.InterNodeBandwidth = 0
	if _, err := NewFabric(env, params, MultiNode{Nodes: 2, PerNode: 1, IntraLinks: 2}); err == nil {
		t.Error("zero inter-node bandwidth not rejected")
	}
}

func TestInterNodeParamsValidated(t *testing.T) {
	p := DefaultParams()
	p.InterNodeBandwidth = -1
	if p.Validate() == nil {
		t.Fatal("negative inter-node bandwidth accepted")
	}
	p = DefaultParams()
	p.InterNodeLatency = -1
	if p.Validate() == nil {
		t.Fatal("negative inter-node latency accepted")
	}
}

func TestCustomTopology(t *testing.T) {
	// A DGX-1-style quad: some pairs two links, some one.
	m := matrixTopo{
		{0, 2, 1, 2},
		{2, 0, 2, 1},
		{1, 2, 0, 2},
		{2, 1, 2, 0},
	}
	env := sim.NewEnv()
	f := mustFabric(env, DefaultParams(), m)
	if f.PairBandwidth(0, 2) != 25e9 || f.PairBandwidth(0, 1) != 50e9 {
		t.Fatal("custom topology bandwidths wrong")
	}
}
