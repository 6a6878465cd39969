package pgas

import (
	"math"
	"testing"

	"pgasemb/internal/fabric"
	"pgasemb/internal/sim"
)

// newClusterRuntime wires a runtime over nodes x perNode GPUs.
func newClusterRuntime(env *sim.Env, nodes, perNode int, cfg ProxyConfig) (*Runtime, *fabric.Interconnect) {
	cl := fabric.Cluster{Nodes: nodes, GPUsPerNode: perNode, IntraLinks: 2}
	fab := mustFabric(env, cl)
	net := fabric.NewInterconnect(env, cl, fabric.DefaultNICParams())
	return New(env, fab, net, cfg), net
}

func TestProxyCoalescesSmallStores(t *testing.T) {
	env := sim.NewEnv()
	rt, net := newClusterRuntime(env, 2, 2, ProxyConfig{StagingBytes: 64 << 10, DrainInterval: 0})
	pe, remote := rt.PE(0), rt.PE(2) // different nodes
	env.Go("sender", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			pe.PutBytes(remote, 256)
		}
		pe.Quiet(p)
	})
	env.Run()
	// 100 puts x 256 B = 25600 B < 64 KiB: everything coalesces into the
	// single Quiet-driven flush — one NIC message, not 100.
	if net.Messages() != 1 {
		t.Fatalf("NIC carried %d messages, want 1 coalesced", net.Messages())
	}
	if net.PayloadBytes() != 100*256 {
		t.Fatalf("NIC payload %g, want %d", net.PayloadBytes(), 100*256)
	}
	if pe.Puts() != 100 {
		t.Fatalf("PE counted %d puts, want 100", pe.Puts())
	}
	if pe.proxy.flushes != 1 {
		t.Fatalf("proxy flushed %d times, want 1", pe.proxy.flushes)
	}
}

func TestProxyStagingThresholdFlush(t *testing.T) {
	env := sim.NewEnv()
	rt, net := newClusterRuntime(env, 2, 2, ProxyConfig{StagingBytes: 4096, DrainInterval: 0})
	pe, remote := rt.PE(0), rt.PE(2)
	env.Go("sender", func(p *sim.Proc) {
		for i := 0; i < 32; i++ { // 32 x 256 B = 8192 B = two full buffers
			pe.PutBytes(remote, 256)
		}
		if got := pe.proxy.flushes; got != 2 {
			t.Errorf("threshold flushed %d times before quiet, want 2", got)
		}
		pe.Quiet(p)
	})
	env.Run()
	if pe.proxy.flushes != 2 { // quiet found empty buffers
		t.Fatalf("total flushes %d, want 2", pe.proxy.flushes)
	}
	if net.PayloadBytes() != 8192 {
		t.Fatalf("NIC payload %g, want 8192", net.PayloadBytes())
	}
}

func TestProxyDrainTimer(t *testing.T) {
	env := sim.NewEnv()
	interval := 10 * sim.Microsecond
	rt, net := newClusterRuntime(env, 2, 2, ProxyConfig{StagingBytes: 1 << 20, DrainInterval: interval})
	pe, remote := rt.PE(0), rt.PE(2)
	env.Go("sender", func(p *sim.Proc) {
		pe.PutBytes(remote, 512)
		p.Wait(100 * sim.Microsecond) // no Quiet: only the timer can flush
	})
	env.Run()
	if net.Messages() != 1 {
		t.Fatalf("drain timer did not flush: %d NIC messages", net.Messages())
	}
	// The flush happened at the drain interval, so delivery is interval +
	// launch + wire/bandwidth + latency.
	nic := net.NIC()
	want := interval + nic.MessageOverhead + nic.WireBytes(512)/nic.Bandwidth + nic.Latency
	if got := pe.proxy.lastDelivery; math.Abs(got-want) > 1e-9 {
		t.Fatalf("timer flush delivered at %g, want %g", got, want)
	}
}

func TestProxySameNodeStoresStayOnNVLink(t *testing.T) {
	env := sim.NewEnv()
	rt, net := newClusterRuntime(env, 2, 2, DefaultProxyConfig())
	pe, peer := rt.PE(0), rt.PE(1) // same node
	env.Go("sender", func(p *sim.Proc) {
		pe.PutBytes(peer, 4096)
		pe.Quiet(p)
	})
	env.Run()
	if net.Messages() != 0 {
		t.Fatalf("same-node store crossed the NIC (%d messages)", net.Messages())
	}
	if rt.Fabric().TotalBytes() == 0 {
		t.Fatal("same-node store did not use NVLink")
	}
}

func TestProxyQuietWaitsForDelivery(t *testing.T) {
	env := sim.NewEnv()
	rt, net := newClusterRuntime(env, 2, 2, DefaultProxyConfig())
	pe, remote := rt.PE(0), rt.PE(2)
	payload := 4096
	var quietAt sim.Time
	env.Go("sender", func(p *sim.Proc) {
		pe.PutBytes(remote, payload)
		pe.Quiet(p)
		quietAt = p.Now()
	})
	env.Run()
	nic := net.NIC()
	want := nic.MessageOverhead + nic.WireBytes(payload)/nic.Bandwidth + nic.Latency
	if math.Abs(quietAt-want) > 1e-9 {
		t.Fatalf("quiet returned at %g, want NIC delivery %g", quietAt, want)
	}
}

// PutVectors must stage per vector, producing byte-for-byte the same NIC
// traffic (messages, payload, flush boundaries) as individual puts — the
// invariant that keeps timing-only and functional cluster runs identical.
func TestProxyPutVectorsMatchesIndividualPuts(t *testing.T) {
	run := func(vectors bool) (int64, float64, sim.Time) {
		env := sim.NewEnv()
		cfg := ProxyConfig{StagingBytes: 3000, DrainInterval: 0}
		rt, net := newClusterRuntime(env, 2, 2, cfg)
		pe, remote := rt.PE(1), rt.PE(3)
		env.Go("sender", func(p *sim.Proc) {
			if vectors {
				pe.PutVectors(remote, 40, 256)
			} else {
				for i := 0; i < 40; i++ {
					pe.PutBytes(remote, 256)
				}
			}
			pe.Quiet(p)
		})
		end := env.Run()
		return net.Messages(), net.PayloadBytes(), end
	}
	m1, p1, e1 := run(true)
	m2, p2, e2 := run(false)
	if m1 != m2 || p1 != p2 || e1 != e2 {
		t.Fatalf("PutVectors (%d msgs, %g B, end %g) != individual puts (%d msgs, %g B, end %g)",
			m1, p1, e1, m2, p2, e2)
	}
}

func TestAggregatorRoutesCrossNodeThroughProxy(t *testing.T) {
	env := sim.NewEnv()
	rt, net := newClusterRuntime(env, 2, 2, DefaultProxyConfig())
	pe, remote := rt.PE(0), rt.PE(2)
	agg := NewAggregator(pe, 1024, sim.Millisecond)
	env.Go("sender", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			agg.StoreBytes(remote, 256) // two 1024 B aggregator flushes
		}
		agg.FlushAll()
		pe.Quiet(p)
	})
	env.Run()
	if net.PayloadBytes() != 8*256 {
		t.Fatalf("NIC payload %g, want %d", net.PayloadBytes(), 8*256)
	}
	if net.Messages() == 0 {
		t.Fatal("aggregated cross-node stores never reached the NIC")
	}
}

func TestProxyConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  ProxyConfig
		ok   bool
	}{
		{"default", DefaultProxyConfig(), true},
		{"timer-disabled", ProxyConfig{StagingBytes: 4096}, true},
		{"zero-staging", ProxyConfig{StagingBytes: 0, DrainInterval: sim.Microsecond}, false},
		{"negative-staging", ProxyConfig{StagingBytes: -1}, false},
		{"negative-drain", ProxyConfig{StagingBytes: 4096, DrainInterval: -sim.Microsecond}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.cfg.Validate(); (err == nil) != c.ok {
				t.Fatalf("Validate(%+v) = %v, want ok=%v", c.cfg, err, c.ok)
			}
		})
	}
}

func TestNewRejectsBadProxyConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New accepted StagingBytes 0")
		}
	}()
	newClusterRuntime(sim.NewEnv(), 2, 2, ProxyConfig{})
}

// quietAfterOnePut sends one remote-node store under the given fault hooks
// and returns the PE and the time Quiet released the sender.
func quietAfterOnePut(t *testing.T, hooks *FaultHooks, payload int) (*PE, *fabric.Interconnect, sim.Time) {
	t.Helper()
	env := sim.NewEnv()
	rt, net := newClusterRuntime(env, 2, 2, ProxyConfig{StagingBytes: 1 << 20})
	rt.SetFaultHooks(hooks)
	pe, remote := rt.PE(0), rt.PE(2)
	var quietAt sim.Time
	env.Go("sender", func(p *sim.Proc) {
		pe.PutBytes(remote, payload)
		pe.Quiet(p)
		quietAt = p.Now()
	})
	env.Run()
	return pe, net, quietAt
}

// A lost flush is resent after the retry timeout, the timeout doubles per
// attempt, and Quiet waits for the delivery that landed.
func TestProxyRetransmitsDroppedFlush(t *testing.T) {
	payload := 4096
	hooks := &FaultHooks{
		Drop: func(pe, dstNode int, seq int64, attempt int) bool { return attempt < 2 },
	}
	pe, net, quietAt := quietAfterOnePut(t, hooks, payload)
	if pe.Drops() != 2 || pe.Retries() != 2 || pe.RetriesExhausted() != 0 {
		t.Fatalf("drops %d retries %d exhausted %d, want 2 2 0",
			pe.Drops(), pe.Retries(), pe.RetriesExhausted())
	}
	if net.Messages() != 3 {
		t.Fatalf("NIC carried %d messages, want the original and two resends", net.Messages())
	}
	nic := net.NIC()
	trip := nic.MessageOverhead + nic.WireBytes(payload)/nic.Bandwidth + nic.Latency
	const timeout = 50 * sim.Microsecond
	want := 3*trip + timeout + 2*timeout
	if math.Abs(quietAt-want) > 1e-12 {
		t.Fatalf("quiet returned at %g, want %g", quietAt, want)
	}
	if pe.WireBytes() != 3*nic.WireBytes(payload) {
		t.Fatalf("wire bytes %g, want three sends", pe.WireBytes())
	}
}

// A message lost on every attempt is given up after 16 of them.
func TestProxyRetryAttemptCap(t *testing.T) {
	always := func(pe, dstNode int, seq int64, attempt int) bool { return true }
	pe, net, _ := quietAfterOnePut(t, &FaultHooks{Drop: always}, 256)
	if pe.Drops() != 16 || pe.Retries() != 15 || pe.RetriesExhausted() != 1 {
		t.Fatalf("drops %d retries %d exhausted %d, want 16 15 1",
			pe.Drops(), pe.Retries(), pe.RetriesExhausted())
	}
	if net.Messages() != 16 {
		t.Fatalf("NIC carried %d messages, want 16", net.Messages())
	}
}

// Hooks touch only the inter-node proxy: same-node NVLink stores are never
// offered to Drop.
func TestFaultHooksSkipSameNodeStores(t *testing.T) {
	env := sim.NewEnv()
	rt, _ := newClusterRuntime(env, 2, 2, DefaultProxyConfig())
	called := false
	rt.SetFaultHooks(&FaultHooks{
		Drop: func(int, int, int64, int) bool { called = true; return true },
	})
	pe := rt.PE(0)
	env.Go("sender", func(p *sim.Proc) {
		pe.PutBytes(rt.PE(1), 4096)
		pe.Quiet(p)
	})
	env.Run()
	if called || pe.Drops() != 0 {
		t.Fatalf("same-node store reached the fault hook (drops %d)", pe.Drops())
	}
}
