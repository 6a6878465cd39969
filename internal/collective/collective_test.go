package collective

import (
	"math"
	"testing"

	"pgasemb/internal/fabric"
	"pgasemb/internal/nvlink"
	"pgasemb/internal/sim"
)

// testComm wires a default communicator over one node of n GPUs.
func testComm(n int) (*sim.Env, *Comm) {
	env := sim.NewEnv()
	c, _, _ := testMachine(env, 1, n, DefaultParams())
	return env, c
}

// testMachine wires a communicator over a nodes x perNode cluster,
// panicking on the construction error.
func testMachine(env *sim.Env, nodes, perNode int, params Params) (*Comm, *nvlink.Fabric, *fabric.Interconnect) {
	cl := fabric.Cluster{Nodes: nodes, GPUsPerNode: perNode, IntraLinks: 2}
	fab := mustFabric(env, cl)
	net := fabric.NewInterconnect(env, cl, fabric.DefaultNICParams())
	c, err := New(env, fab, params, net)
	if err != nil {
		panic(err)
	}
	return c, fab, net
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

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	muts := []func(*Params){
		func(p *Params) { p.ChannelBandwidth = 0 },
		func(p *Params) { p.LaunchOverhead = -1 },
		func(p *Params) { p.ChunkBytes = 0 },
		func(p *Params) { p.PerChunkLatency = -1 },
	}
	for i, mut := range muts {
		p := DefaultParams()
		mut(&p)
		if p.Validate() == nil {
			t.Errorf("mutation %d not rejected", i)
		}
	}
}

// New hands back the parameter error itself, with no communicator, for every
// invalid field.
func TestNewReturnsParamsError(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Params)
	}{
		{"channel-bandwidth", func(p *Params) { p.ChannelBandwidth = 0 }},
		{"launch-overhead", func(p *Params) { p.LaunchOverhead = -1 }},
		{"chunk-bytes", func(p *Params) { p.ChunkBytes = 0 }},
		{"per-chunk-latency", func(p *Params) { p.PerChunkLatency = -1 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			env := sim.NewEnv()
			p := DefaultParams()
			c.mut(&p)
			cl := fabric.Cluster{Nodes: 1, GPUsPerNode: 2, IntraLinks: 2}
			net := fabric.NewInterconnect(env, cl, fabric.DefaultNICParams())
			comm, err := New(env, mustFabric(env, cl), p, net)
			if err == nil {
				t.Fatal("New accepted invalid parameters")
			}
			if comm != nil {
				t.Errorf("New returned a communicator alongside error %q", err)
			}
			if want := p.Validate(); err.Error() != want.Error() {
				t.Errorf("New error %q, want the Validate error %q", err, want)
			}
		})
	}
}

// runRanks launches one proc per rank running fn and drains the simulation.
func runRanks(env *sim.Env, n int, fn func(p *sim.Proc, rank int)) {
	for r := 0; r < n; r++ {
		r := r
		env.Go("rank", func(p *sim.Proc) { fn(p, r) })
	}
	env.Run()
}

// uniform returns an n-entry size vector with bytes for every peer but self.
func uniform(n, self int, bytes float64) []float64 {
	sizes := make([]float64, n)
	for i := range sizes {
		if i != self {
			sizes[i] = bytes
		}
	}
	return sizes
}

func TestAllToAllEmptySegments(t *testing.T) {
	const n = 2
	env, c := testComm(n)
	runRanks(env, n, func(p *sim.Proc, rank int) {
		c.AllToAllSingleSizes(p, rank, make([]float64, n), make([]float64, n))
	})
	if env.Now() <= 0 {
		t.Fatal("even an empty collective pays launch overhead")
	}
}

func TestAllToAllIsBulkSynchronous(t *testing.T) {
	// A late rank delays everyone: no transfers before the last arrival.
	const n = 2
	env, c := testComm(n)
	var doneAt [n]sim.Time
	runRanks(env, n, func(p *sim.Proc, rank int) {
		if rank == 1 {
			p.Wait(10 * sim.Millisecond)
		}
		sizes := uniform(n, rank, 256)
		c.AllToAllSingleSizes(p, rank, sizes, sizes)
		doneAt[rank] = p.Now()
	})
	if doneAt[0] < 10*sim.Millisecond {
		t.Fatalf("rank 0 finished at %v, before rank 1 even arrived", doneAt[0])
	}
}

func TestAllToAllTransferTimeScalesWithBytes(t *testing.T) {
	run := func(bytes float64) sim.Time {
		const n = 2
		env, c := testComm(n)
		var done sim.Time
		runRanks(env, n, func(p *sim.Proc, rank int) {
			sizes := uniform(n, rank, bytes)
			c.AllToAllSingleSizes(p, rank, sizes, sizes)
			if p.Now() > done {
				done = p.Now()
			}
		})
		return done
	}
	small := run(4 << 10)
	big := run(16 << 20)
	if big <= small {
		t.Fatalf("transfer time did not grow with volume: %v vs %v", small, big)
	}
	// 16 MiB per peer at the channel bandwidth dominates the overheads.
	wantBig := float64(16<<20) / DefaultParams().ChannelBandwidth
	if math.Abs(big-wantBig)/wantBig > 0.2 {
		t.Fatalf("big transfer = %v, want ≈%v", big, wantBig)
	}
}

func TestAllToAllChannelLimited(t *testing.T) {
	// With channel bandwidth below link rate, the channel is the bottleneck.
	env := sim.NewEnv()
	params := DefaultParams()
	params.ChannelBandwidth = 1e9 // far below the 50 GB/s pair
	c, _, _ := testMachine(env, 1, 2, params)
	var done sim.Time
	runRanks(env, 2, func(p *sim.Proc, rank int) {
		sizes := uniform(2, rank, 4<<20)
		c.AllToAllSingleSizes(p, rank, sizes, sizes)
		done = p.Now()
	})
	want := float64(4<<20) / 1e9
	if done < want {
		t.Fatalf("finished at %v, faster than channel bandwidth allows (%v)", done, want)
	}
}

func TestAllToAllSegmentCountPanics(t *testing.T) {
	env, c := testComm(2)
	panicked := false
	env.Go("bad", func(p *sim.Proc) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		c.AllToAllSingleSizes(p, 0, make([]float64, 3), make([]float64, 2))
	})
	env.Run()
	if !panicked {
		t.Fatal("wrong segment count did not panic")
	}
}

func TestAllToAllVolumeTrace(t *testing.T) {
	const n = 4
	env, c := testComm(n)
	runRanks(env, n, func(p *sim.Proc, rank int) {
		sizes := uniform(n, rank, 1024)
		c.AllToAllSingleSizes(p, rank, sizes, sizes)
	})
	// Each rank sends 3 remote segments of 1 KiB.
	want := float64(n) * 3 * 1024
	if got := c.Volume().Total(); got != want {
		t.Fatalf("volume = %v, want %v", got, want)
	}
}

func TestSingleRankCollectivesDegenerate(t *testing.T) {
	env, c := testComm(1)
	runRanks(env, 1, func(p *sim.Proc, rank int) {
		// The self entry is the kernel's local copy, never wire traffic.
		c.AllToAllSingleSizes(p, rank, []float64{8}, []float64{8})
		if p.Now() != c.Params().LaunchOverhead {
			t.Errorf("self alltoall took %v, want only the launch overhead %v", p.Now(), c.Params().LaunchOverhead)
		}
	})
	if c.Volume().Total() != 0 {
		t.Errorf("self alltoall put %v bytes on the wire", c.Volume().Total())
	}
}

// TestBackToBackCollectives reuses the communicator for several rounds with a
// different segment size each time: every round must take its own size's
// time, and recycled op descriptors must not pile up.
func TestBackToBackCollectives(t *testing.T) {
	const n = 2
	env, c := testComm(n)
	runRanks(env, n, func(p *sim.Proc, rank int) {
		for round := 0; round < 5; round++ {
			bytes := float64(1<<10) * float64(1+3*round)
			start := p.Now()
			sizes := uniform(n, rank, bytes)
			c.AllToAllSingleSizes(p, rank, sizes, sizes)
			want := c.Params().LaunchOverhead + c.TransferTime(rank, 1-rank, bytes)
			if got := p.Now() - start; math.Abs(got-want) > 1e-15 {
				t.Errorf("round %d rank %d took %v, want %v", round, rank, got, want)
			}
		}
	})
	// A rank may enter the next round while its peer still holds the last
	// one's descriptor, so at most two are ever live.
	if len(c.opFree) > 2 {
		t.Errorf("%d op descriptors after 5 sequential rounds, want at most 2 recycled", len(c.opFree))
	}
}

func TestCollectiveContendsWithOneSidedTraffic(t *testing.T) {
	// Collectives now occupy the physical pipes: when a burst of one-sided
	// traffic already fills the 0->1 wire, the collective's leg drains
	// later than its protocol pacing alone would allow.
	run := func(congest bool) sim.Time {
		env := sim.NewEnv()
		c, fab, _ := testMachine(env, 1, 2, DefaultParams())
		if congest {
			// 5 GB head-of-line on the 0->1 pipe: 100 ms at 50 GB/s.
			fab.Pipe(0, 1).Offer(5e9)
		}
		var done sim.Time
		runRanks(env, 2, func(p *sim.Proc, rank int) {
			sizes := []float64{0, 0}
			sizes[1-rank] = 1 << 20
			c.AllToAllSingleSizes(p, rank, sizes, sizes)
			if p.Now() > done {
				done = p.Now()
			}
		})
		return done
	}
	idle := run(false)
	congested := run(true)
	if congested <= idle {
		t.Fatalf("congested collective (%v) not slower than idle (%v)", congested, idle)
	}
	if congested < 0.09 { // must wait out most of the 100 ms burst
		t.Fatalf("congested collective finished at %v, ignoring wire occupancy", congested)
	}
}

func TestCollectiveOccupiesWireForLaterTraffic(t *testing.T) {
	// Symmetric direction: a collective's bytes delay subsequent one-sided
	// traffic on the same pipe.
	env := sim.NewEnv()
	c, fab, _ := testMachine(env, 1, 2, DefaultParams())
	const legBytes = 1 << 24 // 16 MiB
	runRanks(env, 2, func(p *sim.Proc, rank int) {
		sizes := []float64{0, 0}
		sizes[1-rank] = legBytes
		c.AllToAllSingleSizes(p, rank, sizes, sizes)
	})
	// The pipe now holds the collective's bytes; their drain horizon must
	// reflect 16 MiB at 50 GB/s.
	if got := fab.Pipe(0, 1).TotalBytes(); got != legBytes {
		t.Fatalf("pipe carried %v bytes, want %v", got, float64(legBytes))
	}
}
