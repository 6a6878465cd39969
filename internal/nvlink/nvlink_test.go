package nvlink

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"pgasemb/internal/fabric"
	"pgasemb/internal/sim"
)

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	cases := []func(*Params){
		func(p *Params) { p.LinkBandwidth = 0 },
		func(p *Params) { p.LinkLatency = -1 },
		func(p *Params) { p.HeaderBytes = -1 },
		func(p *Params) { p.MaxPayload = 0 },
	}
	for i, mut := range cases {
		p := DefaultParams()
		mut(&p)
		if p.Validate() == nil {
			t.Errorf("mutation %d not rejected", i)
		}
	}
}

func TestDGXStationTopology(t *testing.T) {
	topo := station(4)
	if topo.NumGPUs() != 4 {
		t.Fatalf("NumGPUs = %d", topo.NumGPUs())
	}
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			want := 2
			if a == b {
				want = 0
			}
			if got := topo.Links(a, b); got != want {
				t.Fatalf("Links(%d,%d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestTopologyOutOfRangePanics(t *testing.T) {
	topo := station(2)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range Links did not panic")
		}
	}()
	topo.Links(0, 5)
}

func TestFabricPairBandwidth(t *testing.T) {
	env := sim.NewEnv()
	f := mustFabric(env, DefaultParams(), station(4))
	want := 2 * 25e9 // two links per pair
	if got := f.PairBandwidth(0, 3); got != want {
		t.Fatalf("PairBandwidth = %v, want %v", got, want)
	}
	if f.NumGPUs() != 4 {
		t.Fatalf("NumGPUs = %d", f.NumGPUs())
	}
}

// The fabric hands back the wiring and parameters it was built from;
// callers read link counts through Topology().
func TestFabricExposesTopologyAndParams(t *testing.T) {
	params := DefaultParams()
	params.LinkBandwidth = 40e9
	topo := matrixTopo{{0, 1, 3}, {1, 0, 2}, {3, 2, 0}}
	f := mustFabric(sim.NewEnv(), params, topo)
	if f.Params() != params {
		t.Fatalf("Params = %+v, want %+v", f.Params(), params)
	}
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			if got, want := f.Topology().Links(a, b), topo.Links(a, b); got != want {
				t.Fatalf("Topology().Links(%d, %d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

// SetLinkDegrade slows only the one directed pipe it names.
func TestFabricSetLinkDegradeOneDirection(t *testing.T) {
	params := DefaultParams()
	f := mustFabric(sim.NewEnv(), params, station(3))
	f.SetLinkDegrade(0, 1, 0.5)
	bytes := 2 * params.LinkBandwidth * 1e-3 // 1 ms on a healthy two-link pair
	healthy := 1e-3 + params.LinkLatency
	degraded := 2e-3 + params.LinkLatency
	for _, c := range []struct {
		src, dst int
		want     sim.Time
	}{{0, 1, degraded}, {1, 0, healthy}, {0, 2, healthy}} {
		if got := f.Pipe(c.src, c.dst).Offer(bytes); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%d->%d delivered at %v, want %v", c.src, c.dst, got, c.want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("degrading a self pair did not panic")
		}
	}()
	f.SetLinkDegrade(2, 2, 0.5)
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

func TestFabricSelfPipePanics(t *testing.T) {
	env := sim.NewEnv()
	f := mustFabric(env, DefaultParams(), station(2))
	defer func() {
		if recover() == nil {
			t.Error("self pipe did not panic")
		}
	}()
	f.Pipe(1, 1)
}

func TestFabricUnconnectedPanics(t *testing.T) {
	env := sim.NewEnv()
	// Two disconnected GPUs.
	f := mustFabric(env, DefaultParams(), matrixTopo{{0, 0}, {0, 0}})
	defer func() {
		if recover() == nil {
			t.Error("unconnected pipe did not panic")
		}
	}()
	f.Pipe(0, 1)
}

func TestFabricDirectionsIndependent(t *testing.T) {
	env := sim.NewEnv()
	f := mustFabric(env, DefaultParams(), station(2))
	// Saturate 0->1; 1->0 must stay unaffected (full duplex).
	end01 := f.Pipe(0, 1).Offer(500e6)
	end10 := f.Pipe(1, 0).Offer(500e6)
	if end01 != end10 {
		t.Fatalf("duplex directions interfere: %v vs %v", end01, end10)
	}
}

func TestWireBytes(t *testing.T) {
	env := sim.NewEnv()
	f := mustFabric(env, DefaultParams(), station(2))
	cases := []struct {
		payload int
		want    float64
	}{
		{0, 32},         // bare header
		{1, 33},         // one fragment
		{256, 288},      // exactly one embedding vector
		{257, 257 + 64}, // two fragments
		{512, 512 + 64}, // two full fragments
	}
	for _, c := range cases {
		if got := f.WireBytes(c.payload); got != c.want {
			t.Errorf("WireBytes(%d) = %v, want %v", c.payload, got, c.want)
		}
	}
}

func TestWireBytesNegativePanics(t *testing.T) {
	env := sim.NewEnv()
	f := mustFabric(env, DefaultParams(), station(2))
	defer func() {
		if recover() == nil {
			t.Error("negative payload did not panic")
		}
	}()
	f.WireBytes(-1)
}

// Property: header overhead is at most HeaderBytes per MaxPayload-1 bytes
// extra, and WireBytes is monotone.
func TestWireBytesMonotoneProperty(t *testing.T) {
	env := sim.NewEnv()
	f := mustFabric(env, DefaultParams(), station(2))
	prop := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return f.WireBytes(x) <= f.WireBytes(y)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFabricAggregates(t *testing.T) {
	env := sim.NewEnv()
	f := mustFabric(env, DefaultParams(), station(3))
	f.Pipe(0, 1).Offer(100)
	f.Pipe(1, 2).Offer(200)
	f.Pipe(2, 0).Offer(300)
	if got := f.TotalBytes(); got != 600 {
		t.Fatalf("TotalBytes = %v, want 600", got)
	}
}

func TestFabricCommTimeDropsWithMoreGPUs(t *testing.T) {
	// The paper's trend: with the all-to-all volume split over more peers
	// (each pair its own links), per-GPU communication time decreases.
	drain := func(n int) sim.Time {
		env := sim.NewEnv()
		f := mustFabric(env, DefaultParams(), station(n))
		total := 268e6 // output bytes per GPU per batch (weak scaling)
		remote := total * float64(n-1) / float64(n)
		perPeer := remote / float64(n-1)
		for dst := 1; dst < n; dst++ {
			f.Pipe(0, dst).Offer(perPeer)
		}
		return f.Pipe(0, 1).BusyUntil() // every peer's pipe drains together
	}
	t2, t3, t4 := drain(2), drain(3), drain(4)
	if !(t2 > t3 && t3 > t4) {
		t.Fatalf("comm drain times not decreasing: %v %v %v", t2, t3, t4)
	}
}

func TestNewFabricRejectsAsymmetric(t *testing.T) {
	if _, err := NewFabric(sim.NewEnv(), DefaultParams(), asymTopo{}); err == nil {
		t.Error("asymmetric topology not rejected")
	}
}

type asymTopo struct{}

func (asymTopo) NumGPUs() int { return 2 }
func (asymTopo) Links(a, b int) int {
	if a == 0 && b == 1 {
		return 2
	}
	return 1
}

func TestNewFabricRejectsEmptyTopology(t *testing.T) {
	if _, err := NewFabric(sim.NewEnv(), DefaultParams(), matrixTopo{}); err == nil {
		t.Error("empty topology not rejected")
	}
}

// ValidateTopology must return descriptive errors for every defect class —
// and, for a topology with its own Validate, must consult it before the
// pairwise Links probe that would panic on a malformed shape.
func TestValidateTopologyErrors(t *testing.T) {
	cases := []struct {
		name string
		topo Topology
		want string
	}{
		{"ragged", raggedTopo{}, "row 1 has 1 entries"},
		{"asymmetric", zeroDiagAsymTopo{}, "asymmetric links between GPUs 0 and 1"},
		{"asymmetric-matrix", matrixTopo{{0, 2}, {1, 0}}, "asymmetric links"},
		{"negative", matrixTopo{{0, -1}, {-1, 0}}, "negative link count"},
		{"self-links", selfLinkTopo{}, "self links"},
		{"empty", matrixTopo{}, "no GPUs"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := ValidateTopology(c.topo)
			if err == nil {
				t.Fatalf("ValidateTopology(%s) accepted a bad topology", c.name)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

type zeroDiagAsymTopo struct{}

func (zeroDiagAsymTopo) NumGPUs() int { return 2 }
func (zeroDiagAsymTopo) Links(a, b int) int {
	if a == b {
		return 0
	}
	if a == 0 && b == 1 {
		return 2
	}
	return 1
}

type selfLinkTopo struct{}

func (selfLinkTopo) NumGPUs() int       { return 2 }
func (selfLinkTopo) Links(a, b int) int { return 1 }

// matrixTopo is an explicit link matrix: m[a][b] links between GPUs a and b.
type matrixTopo [][]int

func (m matrixTopo) NumGPUs() int       { return len(m) }
func (m matrixTopo) Links(a, b int) int { return m[a][b] }

// raggedTopo reports its own shape defect; probing its links would panic.
type raggedTopo struct{}

func (raggedTopo) NumGPUs() int       { return 2 }
func (raggedTopo) Links(a, b int) int { panic("nvlink test: Links probed before Validate") }
func (raggedTopo) Validate() error {
	return errors.New("nvlink test: link matrix row 1 has 1 entries, want 2")
}

func TestValidateTopologyAcceptsGoodWirings(t *testing.T) {
	for _, topo := range []Topology{
		station(4),
		matrixTopo{{0, 1}, {1, 0}},
	} {
		if err := ValidateTopology(topo); err != nil {
			t.Errorf("ValidateTopology(%T) = %v, want nil", topo, err)
		}
	}
}

// NewFabric reports every parameter and wiring defect as an error and a nil
// fabric, never as a panic.
func TestNewFabricReturnsError(t *testing.T) {
	noBandwidth := DefaultParams()
	noBandwidth.LinkBandwidth = 0
	cases := []struct {
		name   string
		params Params
		topo   Topology
		want   string
	}{
		{"bad-params", noBandwidth, station(2), "LinkBandwidth must be positive"},
		{"asymmetric", DefaultParams(), zeroDiagAsymTopo{}, "asymmetric links"},
		{"self-links", DefaultParams(), selfLinkTopo{}, "self links"},
		{"ragged", DefaultParams(), raggedTopo{}, "row 1 has 1 entries"},
		{"negative", DefaultParams(), matrixTopo{{0, -1}, {-1, 0}}, "negative link count"},
		{"empty", DefaultParams(), matrixTopo{}, "no GPUs"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f, err := NewFabric(sim.NewEnv(), c.params, c.topo)
			if err == nil {
				t.Fatalf("NewFabric accepted %s", c.name)
			}
			if f != nil {
				t.Errorf("NewFabric returned a fabric alongside error %q", err)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// station is the paper's DGX Station wiring for n GPUs: one node, fully
// connected with two NVLink links per pair.
func station(n int) Topology { return fabric.Cluster{Nodes: 1, GPUsPerNode: n, IntraLinks: 2} }

// mustFabric is NewFabric for tests, panicking on the construction error.
func mustFabric(env *sim.Env, params Params, topo Topology) *Fabric {
	f, err := NewFabric(env, params, topo)
	if err != nil {
		panic(err)
	}
	return f
}
