package pgas

import (
	"math"
	"testing"

	"pgasemb/internal/nvlink"
	"pgasemb/internal/sim"
)

// testRuntime wires a single-node runtime of n PEs.
func testRuntime(n int) (*sim.Env, *Runtime) {
	env := sim.NewEnv()
	rt, _ := newClusterRuntime(env, 1, n, DefaultProxyConfig())
	return env, rt
}

// mustFabric wires a default-parameter NVLink fabric, panicking on the
// construction error tests never expect.
func mustFabric(env *sim.Env, topo nvlink.Topology) *nvlink.Fabric {
	f, err := nvlink.NewFabric(env, nvlink.DefaultParams(), topo)
	if err != nil {
		panic(err)
	}
	return f
}

func TestRuntimeConstruction(t *testing.T) {
	_, rt := testRuntime(4)
	if rt.NumPEs() != 4 {
		t.Fatalf("NumPEs = %d", rt.NumPEs())
	}
	for i := 0; i < 4; i++ {
		if rt.PE(i).ID() != i {
			t.Fatalf("PE(%d).ID() = %d", i, rt.PE(i).ID())
		}
	}
}

func TestPEOutOfRangePanics(t *testing.T) {
	_, rt := testRuntime(2)
	defer func() {
		if recover() == nil {
			t.Error("PE(5) did not panic")
		}
	}()
	rt.PE(5)
}

func TestPutTimingIncludesHeader(t *testing.T) {
	env, rt := testRuntime(2)
	// One 256 B vector + 32 B header = 288 B over 50 GB/s + latency.
	delivered := rt.PE(0).PutVectors(rt.PE(1), 1, 256)
	params := nvlink.DefaultParams()
	want := params.LinkLatency + 288/(2*params.LinkBandwidth)
	if math.Abs(delivered-want) > 1e-15 {
		t.Fatalf("delivered = %v, want %v", delivered, want)
	}
	if env.Now() != 0 {
		t.Fatal("Put must not advance the caller's clock (asynchronous)")
	}
}

func TestLocalPutBypassesFabric(t *testing.T) {
	_, rt := testRuntime(2)
	pe := rt.PE(0)
	at := pe.PutVectors(pe, 3, 256)
	if at != 0 {
		t.Fatalf("local put delivered at %v, want now (0)", at)
	}
	if pe.Puts() != 0 || pe.WireBytes() != 0 {
		t.Fatal("local put must not count as communication")
	}
}

func TestPutBytesAccounting(t *testing.T) {
	_, rt := testRuntime(2)
	pe := rt.PE(0)
	pe.PutBytes(rt.PE(1), 256)
	pe.PutBytes(rt.PE(1), 256)
	if pe.Puts() != 2 {
		t.Fatalf("Puts = %d", pe.Puts())
	}
	if pe.PayloadBytes() != 512 {
		t.Fatalf("PayloadBytes = %v", pe.PayloadBytes())
	}
	if pe.WireBytes() != 512+64 {
		t.Fatalf("WireBytes = %v", pe.WireBytes())
	}
	if pe.Counter().Total() != 512 {
		t.Fatalf("counter total = %v", pe.Counter().Total())
	}
}

func TestPutBytesNegativePanics(t *testing.T) {
	_, rt := testRuntime(2)
	defer func() {
		if recover() == nil {
			t.Error("negative payload did not panic")
		}
	}()
	rt.PE(0).PutBytes(rt.PE(1), -1)
}

func TestQuietWaitsForDrain(t *testing.T) {
	env, rt := testRuntime(2)
	var quietAt sim.Time
	env.Go("pe0", func(p *sim.Proc) {
		// 50 MB at 50 GB/s = 1 ms drain.
		rt.PE(0).PutBytes(rt.PE(1), 50_000_000)
		rt.PE(0).Quiet(p)
		quietAt = p.Now()
	})
	env.Run()
	// 50 MB payload + per-256B-fragment headers = 56.25 MB wire = 1.125 ms.
	if quietAt < 1.1*sim.Millisecond {
		t.Fatalf("Quiet returned at %v, before drain", quietAt)
	}
	if quietAt > 1.2*sim.Millisecond {
		t.Fatalf("Quiet returned at %v, far after drain", quietAt)
	}
}

func TestQuietIgnoresOtherPEs(t *testing.T) {
	env, rt := testRuntime(3)
	var quietAt sim.Time
	env.Go("main", func(p *sim.Proc) {
		rt.PE(1).PutBytes(rt.PE(2), 500_000_000) // 10 ms on someone else's pipe
		rt.PE(0).Quiet(p)                        // PE 0 has nothing outstanding
		quietAt = p.Now()
	})
	env.Run()
	if quietAt != 0 {
		t.Fatalf("idle PE's Quiet waited until %v", quietAt)
	}
}

func TestTotalTraceMergesPEs(t *testing.T) {
	_, rt := testRuntime(3)
	rt.PE(0).PutBytes(rt.PE(1), 100)
	rt.PE(1).PutBytes(rt.PE(2), 200)
	rt.PE(2).PutBytes(rt.PE(0), 300)
	if got := rt.TotalTrace().Total(); got != 600 {
		t.Fatalf("TotalTrace total = %v", got)
	}
}

func TestBarrierAcrossPEs(t *testing.T) {
	env, rt := testRuntime(4)
	b := rt.NewBarrier()
	var released []sim.Time
	for i := 0; i < 4; i++ {
		i := i
		env.Go("pe", func(p *sim.Proc) {
			p.Wait(sim.Duration(i) * sim.Millisecond)
			b.Await(p)
			released = append(released, p.Now())
		})
	}
	env.Run()
	for _, at := range released {
		if at != 3*sim.Millisecond {
			t.Fatalf("released at %v, want 3ms", at)
		}
	}
}

func TestPutsOverlapOnDistinctPipes(t *testing.T) {
	// Stores to different destinations drain concurrently: total drain time
	// equals one destination's share, not the sum.
	env, rt := testRuntime(4)
	var quietAt sim.Time
	env.Go("pe0", func(p *sim.Proc) {
		for dst := 1; dst < 4; dst++ {
			rt.PE(0).PutBytes(rt.PE(dst), 50_000_000) // 1 ms each pipe
		}
		rt.PE(0).Quiet(p)
		quietAt = p.Now()
	})
	env.Run()
	// 50 MB payload fragments into 256 B messages, each with a 32 B header:
	// 56.25 MB on the wire = 1.125 ms per pipe. Serialization would take 3x.
	if quietAt > 1.2*sim.Millisecond {
		t.Fatalf("parallel pipes serialized: quiet at %v", quietAt)
	}
	if quietAt < 1.1*sim.Millisecond {
		t.Fatalf("drain faster than the wire allows: %v", quietAt)
	}
}

func TestPutVectorsValidation(t *testing.T) {
	_, rt := testRuntime(2)
	for i, call := range []func(){
		func() { rt.PE(0).PutVectors(rt.PE(1), -1, 256) },
		func() { rt.PE(0).PutVectors(rt.PE(1), 1, -1) },
	} {
		call := call
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			call()
		}()
	}
}

func TestPutVectorsZeroCountIsFree(t *testing.T) {
	_, rt := testRuntime(2)
	rt.PE(0).PutVectors(rt.PE(1), 0, 256)
	if rt.PE(0).Puts() != 0 || rt.PE(0).WireBytes() != 0 {
		t.Fatal("zero-count PutVectors sent something")
	}
}

func TestPutVectorsMatchesIndividualPuts(t *testing.T) {
	// The aggregate fast path must account exactly like N individual puts
	// when vecBytes == MaxPayload.
	_, rtA := testRuntime(2)
	rtA.PE(0).PutVectors(rtA.PE(1), 100, 256)
	_, rtB := testRuntime(2)
	for i := 0; i < 100; i++ {
		rtB.PE(0).PutBytes(rtB.PE(1), 256)
	}
	a, b := rtA.PE(0), rtB.PE(0)
	if a.Puts() != b.Puts() || a.PayloadBytes() != b.PayloadBytes() || a.WireBytes() != b.WireBytes() {
		t.Fatalf("aggregate path diverges: (%d,%v,%v) vs (%d,%v,%v)",
			a.Puts(), a.PayloadBytes(), a.WireBytes(), b.Puts(), b.PayloadBytes(), b.WireBytes())
	}
	// Drain horizon identical up to float accumulation order (the
	// individual path sums 100 increments; the aggregate divides once).
	dh := rtA.Fabric().Pipe(0, 1).BusyUntil() - rtB.Fabric().Pipe(0, 1).BusyUntil()
	if math.Abs(dh) > 1e-15 {
		t.Fatalf("drain horizons differ between aggregate and individual puts by %v", dh)
	}
}

func TestFabricAccessor(t *testing.T) {
	_, rt := testRuntime(3)
	if rt.Fabric().NumGPUs() != 3 {
		t.Fatal("Fabric accessor broken")
	}
}

// Reduced wire precision is the caller's encoded vector size: a store of
// encoded rows is charged exactly count × encoded bytes of payload, plus one
// header per vector on the wire.
func TestPutVectorsChargesEncodedBytes(t *testing.T) {
	const fp32, fp16, int8 = 256, 128, 72 // d=64 rows; int8 adds an 8 B scale/offset
	for _, enc := range []int{fp32, fp16, int8} {
		_, rt := testRuntime(2)
		pe := rt.PE(0)
		pe.PutVectors(rt.PE(1), 3, enc)
		if got := pe.PayloadBytes(); got != float64(3*enc) {
			t.Errorf("%d B rows: payload %g B, want %d", enc, got, 3*enc)
		}
		if got, want := pe.WireBytes(), 3*rt.Fabric().WireBytes(enc); got != want {
			t.Errorf("%d B rows: wire %g B, want %g", enc, got, want)
		}
	}
}

// Quiet is the one completion point of a PE's stores: it returns exactly at
// the later of its own outgoing pipes' drain horizon (BusyUntil, not the
// last byte's delivery one link latency later) and its proxy's last NIC
// delivery, whichever of the two dominates, and ignores other PEs' traffic.
func TestQuietReturnsAtItsOwnHorizon(t *testing.T) {
	for _, c := range []struct {
		name                  string
		nvlinkBytes, nicBytes int
	}{
		{"nvlink-dominates", 50_000_000, 256},
		{"proxy-dominates", 256, 50_000_000},
	} {
		t.Run(c.name, func(t *testing.T) {
			env := sim.NewEnv()
			rt, _ := newClusterRuntime(env, 2, 2, ProxyConfig{StagingBytes: 64 << 10, DrainInterval: 0})
			pe := rt.PE(0) // PE 1 shares its node, PEs 2 and 3 sit on the other
			env.Go("pe0", func(p *sim.Proc) {
				delivered := pe.PutBytes(rt.PE(1), c.nvlinkBytes)
				pe.PutBytes(rt.PE(2), c.nicBytes)
				rt.PE(1).PutBytes(rt.PE(0), 500_000_000) // another PE's 10 ms store
				pe.Quiet(p)
				pipe := rt.Fabric().Pipe(0, 1).BusyUntil()
				want := max(pipe, pe.proxy.lastDelivery)
				if p.Now() != want {
					t.Errorf("Quiet returned at %v, want %v (pipe drained %v, proxy delivered %v)",
						p.Now(), want, pipe, pe.proxy.lastDelivery)
				}
				if c.nvlinkBytes > c.nicBytes && (p.Now() != pipe || p.Now() >= delivered) {
					t.Errorf("Quiet returned at %v, want the pipe's drain %v, before delivery at %v", p.Now(), pipe, delivered)
				}
				if c.nicBytes > c.nvlinkBytes && (p.Now() != pe.proxy.lastDelivery || p.Now() <= pipe) {
					t.Errorf("Quiet returned at %v, want the proxy's delivery %v, after the pipe's drain %v",
						p.Now(), pe.proxy.lastDelivery, pipe)
				}
			})
			env.Run()
		})
	}
}
