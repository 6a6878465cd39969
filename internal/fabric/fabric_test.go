package fabric

import (
	"math"
	"strings"
	"testing"

	"pgasemb/internal/nvlink"
	"pgasemb/internal/sim"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) <= 1e-9 }

func TestClusterGeometry(t *testing.T) {
	c := Cluster{Nodes: 3, GPUsPerNode: 4, IntraLinks: 2}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.NumGPUs() != 12 {
		t.Fatalf("NumGPUs = %d, want 12", c.NumGPUs())
	}
	if c.Node(7) != 1 || c.Lane(7) != 3 || c.GPU(1, 3) != 7 {
		t.Fatalf("node/lane round trip broken: Node(7)=%d Lane(7)=%d GPU(1,3)=%d",
			c.Node(7), c.Lane(7), c.GPU(1, 3))
	}
	// Intra-node pairs carry NVLink links, inter-node pairs none.
	if c.Links(0, 3) != 2 {
		t.Fatalf("intra-node links = %d, want 2", c.Links(0, 3))
	}
	if c.Links(0, 4) != 0 {
		t.Fatalf("inter-node links = %d, want 0", c.Links(0, 4))
	}
	if c.Links(5, 5) != 0 {
		t.Fatal("self links must be 0")
	}
	// The NVLink fabric accepts the topology and wires only intra-node
	// pipes: cross-node Pipe access must panic (no direct wire).
	f, err := nvlink.NewFabric(sim.NewEnv(), nvlink.DefaultParams(), c)
	if err != nil {
		t.Fatal(err)
	}
	f.Pipe(0, 1) // intra: fine
	defer func() {
		if recover() == nil {
			t.Fatal("cross-node nvlink pipe did not panic")
		}
	}()
	f.Pipe(0, 4)
}

func TestClusterValidation(t *testing.T) {
	bad := []Cluster{
		{Nodes: 0, GPUsPerNode: 4, IntraLinks: 2},
		{Nodes: 2, GPUsPerNode: 0, IntraLinks: 2},
		{Nodes: 2, GPUsPerNode: 4, IntraLinks: 0},
	}
	for _, c := range bad {
		if c.Validate() == nil {
			t.Errorf("cluster %+v not rejected", c)
		}
	}
}

func TestClusterLinksOutOfRangePanics(t *testing.T) {
	c := Cluster{Nodes: 2, GPUsPerNode: 2, IntraLinks: 2}
	for _, pair := range [][2]int{{0, 7}, {4, 0}, {-1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Links(%d, %d) did not panic", pair[0], pair[1])
				}
			}()
			c.Links(pair[0], pair[1])
		}()
	}
}

// A cluster with no intra-node links would wire no pipes at all; the NVLink
// fabric refuses it through the cluster's own Validate.
func TestNewFabricRejectsUnlinkedCluster(t *testing.T) {
	f, err := nvlink.NewFabric(sim.NewEnv(), nvlink.DefaultParams(), Cluster{Nodes: 2, GPUsPerNode: 2})
	if err == nil || f != nil {
		t.Fatalf("unlinked cluster accepted: fabric %v, err %v", f, err)
	}
	if !strings.Contains(err.Error(), "intra-node NVLink link") {
		t.Fatalf("error %q does not name the missing intra-node link", err)
	}
}

func TestNICParamsValidation(t *testing.T) {
	if err := DefaultNICParams().Validate(); err != nil {
		t.Fatal(err)
	}
	muts := []func(*NICParams){
		func(p *NICParams) { p.NICsPerNode = 0 },
		func(p *NICParams) { p.Bandwidth = 0 },
		func(p *NICParams) { p.Latency = -1 },
		func(p *NICParams) { p.HeaderBytes = -1 },
		func(p *NICParams) { p.MaxMessage = 0 },
		func(p *NICParams) { p.MessageOverhead = -1 },
	}
	for i, mut := range muts {
		p := DefaultNICParams()
		mut(&p)
		if p.Validate() == nil {
			t.Errorf("mutation %d not rejected", i)
		}
	}
}

func TestMessagesAndWireBytes(t *testing.T) {
	p := DefaultNICParams() // 1 MiB max message, 64 B headers
	cases := []struct {
		payload, msgs int
	}{
		{0, 1}, {1, 1}, {1 << 20, 1}, {1<<20 + 1, 2}, {3 << 20, 3}, {3<<20 + 5, 4},
	}
	for _, c := range cases {
		if got := p.Messages(c.payload); got != c.msgs {
			t.Errorf("Messages(%d) = %d, want %d", c.payload, got, c.msgs)
		}
		want := float64(c.payload + c.msgs*p.HeaderBytes)
		if got := p.WireBytes(c.payload); got != want {
			t.Errorf("WireBytes(%d) = %g, want %g", c.payload, got, want)
		}
	}
}

// A single uncontended send takes exactly launch + wire/bandwidth + latency.
func TestSingleFlowAnalyticTime(t *testing.T) {
	nic := DefaultNICParams()
	cl := Cluster{Nodes: 2, GPUsPerNode: 4, IntraLinks: 2}
	ic := NewInterconnect(sim.NewEnv(), cl, nic)

	payload := 256 << 10
	wire := nic.WireBytes(payload)
	want := nic.MessageOverhead + wire/nic.Bandwidth + nic.Latency
	if got := ic.Send(0, 1, payload); !almostEqual(got, want) {
		t.Fatalf("delivery at %g, want %g", got, want)
	}
	if ic.Messages() != 1 || ic.PayloadBytes() != float64(payload) || ic.WireBytes() != wire {
		t.Fatalf("counters: msgs=%d payload=%g wire=%g", ic.Messages(), ic.PayloadBytes(), ic.WireBytes())
	}

	// A multi-message payload pays one launch overhead and one header per
	// fragment but the one-way latency only once.
	big := 5<<20 + 3
	msgs := nic.Messages(big)
	wire = nic.WireBytes(big)
	ic = NewInterconnect(sim.NewEnv(), cl, nic)
	want = sim.Duration(msgs)*nic.MessageOverhead + wire/nic.Bandwidth + nic.Latency
	if got := ic.Send(0, 1, big); !almostEqual(got, want) {
		t.Fatalf("multi-message delivery at %g, want %g", got, want)
	}
	if ic.Messages() != int64(msgs) {
		t.Fatalf("message counter %d, want %d", ic.Messages(), msgs)
	}
}

// Two concurrent flows sharing one egress rail drain in FIFO fluid order:
// the second completes after 2x the solo transfer time — each flow
// effectively gets half the NIC bandwidth over the contended window.
func TestSharedEgressRailHalfBandwidth(t *testing.T) {
	nic := DefaultNICParams() // one rail per node: lanes 0 and 1 share it
	cl := Cluster{Nodes: 3, GPUsPerNode: 2, IntraLinks: 2}
	ic := NewInterconnect(sim.NewEnv(), cl, nic)

	payload := 512 << 10
	wire := nic.WireBytes(payload)
	xfer := wire / nic.Bandwidth
	ovh := nic.MessageOverhead

	// Distinct destination nodes, so only the egress rail is shared.
	d1 := ic.SendAt(0, cl.GPU(0, 0), 1, payload)
	d2 := ic.SendAt(0, cl.GPU(0, 1), 2, payload)

	want1 := ovh + xfer + nic.Latency
	// The second launch serialises behind the first (2*ovh), then queues
	// behind the first transfer on the shared egress pipe.
	want2 := ovh + 2*xfer + nic.Latency
	if !almostEqual(d1, want1) {
		t.Fatalf("first delivery %g, want %g", d1, want1)
	}
	if !almostEqual(d2, want2) {
		t.Fatalf("second delivery %g, want %g (half bandwidth under contention)", d2, want2)
	}
}

// Two senders on different nodes aiming at the same destination rail share
// the ingress pipe the same way.
func TestSharedIngressRailHalfBandwidth(t *testing.T) {
	nic := DefaultNICParams()
	cl := Cluster{Nodes: 3, GPUsPerNode: 2, IntraLinks: 2}
	ic := NewInterconnect(sim.NewEnv(), cl, nic)

	payload := 512 << 10
	wire := nic.WireBytes(payload)
	xfer := wire / nic.Bandwidth
	ovh := nic.MessageOverhead

	d1 := ic.SendAt(0, cl.GPU(0, 0), 2, payload)
	d2 := ic.SendAt(0, cl.GPU(1, 0), 2, payload)
	want1 := ovh + xfer + nic.Latency
	want2 := ovh + 2*xfer + nic.Latency
	if !almostEqual(d1, want1) || !almostEqual(d2, want2) {
		t.Fatalf("ingress contention: got %g/%g, want %g/%g", d1, d2, want1, want2)
	}
}

// More NIC rails per node never slow down a fixed communication pattern.
func TestMoreNICsMonotone(t *testing.T) {
	const perNode = 4
	payload := 256 << 10
	finish := func(rails int) sim.Time {
		nic := DefaultNICParams()
		nic.NICsPerNode = rails
		cl := Cluster{Nodes: 2, GPUsPerNode: perNode, IntraLinks: 2}
		ic := NewInterconnect(sim.NewEnv(), cl, nic)
		var worst sim.Time
		for lane := 0; lane < perNode; lane++ {
			if d := ic.SendAt(0, cl.GPU(0, lane), 1, payload); d > worst {
				worst = d
			}
		}
		return worst
	}
	prev := finish(1)
	for rails := 2; rails <= perNode; rails++ {
		cur := finish(rails)
		if cur > prev+1e-12 {
			t.Fatalf("%d rails finish at %g, slower than %d rails at %g", rails, cur, rails-1, prev)
		}
		prev = cur
	}
	// And with one flow per rail there is no contention at all.
	nic := DefaultNICParams()
	want := nic.MessageOverhead + nic.WireBytes(payload)/nic.Bandwidth + nic.Latency
	if got := finish(perNode); !almostEqual(got, want) {
		t.Fatalf("fully railed finish %g, want uncontended %g", got, want)
	}
}

func TestRailAssignment(t *testing.T) {
	nic := DefaultNICParams()
	nic.NICsPerNode = 2
	cl := Cluster{Nodes: 2, GPUsPerNode: 4, IntraLinks: 2}
	ic := NewInterconnect(sim.NewEnv(), cl, nic)
	for g := 0; g < cl.NumGPUs(); g++ {
		if got, want := ic.Rail(g), cl.Lane(g)%2; got != want {
			t.Fatalf("Rail(%d) = %d, want %d", g, got, want)
		}
	}
}

func TestSendToOwnNodePanics(t *testing.T) {
	ic := NewInterconnect(sim.NewEnv(), Cluster{Nodes: 2, GPUsPerNode: 2, IntraLinks: 2}, DefaultNICParams())
	defer func() {
		if recover() == nil {
			t.Fatal("same-node send did not panic")
		}
	}()
	ic.Send(0, 0, 64)
}

// A degraded rail slows both directions through it: sends out of the node
// (egress) and sends into it (ingress). Other nodes and rails keep their
// bandwidth, and a factor of 1 restores the healthy time exactly.
func TestSetRailDegrade(t *testing.T) {
	nic := DefaultNICParams()
	nic.NICsPerNode = 2
	cl := Cluster{Nodes: 3, GPUsPerNode: 2, IntraLinks: 2}
	payload := 1 << 20
	healthy := nic.MessageOverhead + nic.WireBytes(payload)/nic.Bandwidth + nic.Latency
	halved := nic.MessageOverhead + nic.WireBytes(payload)/(nic.Bandwidth*0.5) + nic.Latency
	cases := []struct {
		name       string
		node, rail int
		factors    []float64 // applied in order
		want       sim.Time
	}{
		{"egress-rail", 0, 0, []float64{0.5}, halved},
		{"ingress-rail", 1, 0, []float64{0.5}, halved},
		{"other-node", 2, 0, []float64{0.5}, healthy},
		{"other-rail", 0, 1, []float64{0.5}, healthy},
		{"restored", 0, 0, []float64{0.5, 1}, healthy},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ic := NewInterconnect(sim.NewEnv(), cl, nic)
			for _, f := range c.factors {
				ic.SetRailDegrade(c.node, c.rail, f)
			}
			// GPU 0 on node 0 sends on rail 0 to node 1.
			if ic.Rail(0) != 0 {
				t.Fatalf("GPU 0 sends on rail %d, want 0", ic.Rail(0))
			}
			if got := ic.Send(0, 1, payload); !almostEqual(got, c.want) {
				t.Fatalf("delivery at %g, want %g", got, c.want)
			}
		})
	}
}

func TestSetRailDegradeOutOfRangePanics(t *testing.T) {
	ic := NewInterconnect(sim.NewEnv(), Cluster{Nodes: 2, GPUsPerNode: 2, IntraLinks: 2}, DefaultNICParams())
	for _, c := range []struct {
		name       string
		node, rail int
	}{
		{"node-negative", -1, 0},
		{"node-past-end", 2, 0},
		{"rail-past-end", 0, DefaultNICParams().NICsPerNode},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("SetRailDegrade(%d, %d, 0.5) did not panic", c.node, c.rail)
				}
			}()
			ic.SetRailDegrade(c.node, c.rail, 0.5)
		})
	}
}

func TestInterconnectAccessors(t *testing.T) {
	cl := Cluster{Nodes: 2, GPUsPerNode: 4, IntraLinks: 2}
	nic := DefaultNICParams()
	ic := NewInterconnect(sim.NewEnv(), cl, nic)
	if ic.Cluster() != cl || ic.NIC() != nic {
		t.Fatalf("accessors return %+v / %+v", ic.Cluster(), ic.NIC())
	}
}
