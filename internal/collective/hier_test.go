package collective

import (
	"math"
	"strings"
	"testing"

	"pgasemb/internal/fabric"
	"pgasemb/internal/nvlink"
	"pgasemb/internal/sim"
)

// The hierarchical all-to-all coalesces cross-node payload per node pair:
// with uniform 4 B segments, each of the 2 ordered node pairs carries G*G
// segments in one send.
func TestHierAllToAllCoalescesPerNodePair(t *testing.T) {
	const nodes, perNode = 2, 2
	n := nodes * perNode
	env := sim.NewEnv()
	c, _, net := testMachine(env, nodes, perNode, DefaultParams())
	runRanks(env, n, func(p *sim.Proc, rank int) {
		sizes := make([]float64, n)
		for d := range sizes {
			sizes[d] = 4
		}
		c.AllToAllSingleSizes(p, rank, sizes, sizes)
	})
	if net.Messages() == 0 {
		t.Fatal("hierarchical all-to-all never touched the NIC")
	}
	wantPayload := float64(2 * perNode * perNode * 4)
	if got := net.PayloadBytes(); math.Abs(got-wantPayload) > 1e-9 {
		t.Fatalf("NIC payload %g, want %g (one coalesced send per node pair)", got, wantPayload)
	}
}

// More nodes must not make the collective cheaper: weak-scaling the same
// per-rank traffic across more nodes adds NIC hops.
func TestHierAllToAllNodeScalingMonotone(t *testing.T) {
	const perNode = 2
	perPeer := float64(64 << 10)
	var prev sim.Time
	for nodes := 1; nodes <= 4; nodes++ {
		env := sim.NewEnv()
		c, _, _ := testMachine(env, nodes, perNode, DefaultParams())
		n := nodes * perNode
		runRanks(env, n, func(p *sim.Proc, rank int) {
			send := make([]float64, n)
			recv := make([]float64, n)
			for d := 0; d < n; d++ {
				send[d], recv[d] = perPeer, perPeer
			}
			c.AllToAllSingleSizes(p, rank, send, recv)
		})
		if nodes > 1 && env.Now() <= prev {
			t.Fatalf("%d nodes finished at %g, not slower than %d nodes at %g",
				nodes, env.Now(), nodes-1, prev)
		}
		prev = env.Now()
	}
}

// New returns both of its failure classes as an error with no
// communicator: a fabric sized differently from the cluster, and invalid
// protocol parameters on a correctly wired machine.
func TestNewReturnsError(t *testing.T) {
	cl := fabric.Cluster{Nodes: 2, GPUsPerNode: 2, IntraLinks: 2}
	badParams := DefaultParams()
	badParams.ChunkBytes = 0
	cases := []struct {
		name   string
		fabTop nvlink.Topology
		params Params
		want   string
	}{
		{"size-mismatch", fabric.Cluster{Nodes: 1, GPUsPerNode: 2, IntraLinks: 2}, DefaultParams(), "NVLink fabric has 2 GPUs but the cluster 4"},
		{"bad-params", cl, badParams, "ChunkBytes must be positive"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			env := sim.NewEnv()
			net := fabric.NewInterconnect(env, cl, fabric.DefaultNICParams())
			comm, err := New(env, mustFabric(env, c.fabTop), c.params, net)
			if err == nil {
				t.Fatalf("New accepted %s", c.name)
			}
			if comm != nil {
				t.Errorf("New returned a communicator alongside error %q", err)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}
