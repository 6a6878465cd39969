package retrieval

import (
	"fmt"
	"math"
	"testing"

	"pgasemb/internal/sim"
	"pgasemb/internal/tensor"
	"pgasemb/internal/trace"
)

// headerTaxedHardware inflates the one-sided per-message header until every
// eligible pair's store traffic costs more than collective participation —
// the far side of the paper's §V crossover. On it the hybrid backend must
// route every intra-node pair through the all-to-all.
func headerTaxedHardware(nodes int) HardwareParams {
	var hw HardwareParams
	if nodes > 0 {
		hw = ClusterHardware(nodes)
	} else {
		hw = DefaultHardware()
	}
	hw.Link.HeaderBytes = 1 << 20
	return hw
}

// probeRoutes compiles one batch on a fresh system and reports what GPU 0's
// hybrid transport matrix routes — whether any pair rides the collective and
// whether every pair that moves data does — so tests can assert which
// execution mode a configuration actually engages (instead of silently
// degrading to a delegate mode).
func probeRoutes(t *testing.T, cfg Config, hw HardwareParams) (anyColl, allColl bool) {
	t.Helper()
	s, err := NewSystem(cfg, hw)
	if err != nil {
		t.Fatal(err)
	}
	bd, err := s.NextBatchData()
	if err != nil {
		t.Fatal(err)
	}
	h := &Hybrid{}
	route, allColl := h.routes(s, 0, bd)
	return route != nil, allColl
}

// hybridCase runs the hybrid backend functionally (bit-exact vs Reference)
// and timing-only (equal TotalTime) on one configuration.
func hybridCase(t *testing.T, cfg Config, hw HardwareParams) {
	t.Helper()
	run := func(functional bool) *Result {
		c := cfg
		c.Functional = functional
		s, err := NewSystem(c, hw)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(&Hybrid{})
		if err != nil {
			t.Fatal(err)
		}
		if functional {
			want := mustReference(t, s, res.LastBatch)
			for g := range want {
				if !tensor.Equal(res.Final[g], want[g]) {
					t.Fatalf("GPU %d differs from reference (max diff %g)",
						g, tensor.MaxAbsDiff(res.Final[g], want[g]))
				}
			}
		}
		return res
	}
	fRes := run(true)
	tRes := run(false)
	if math.Abs(fRes.TotalTime-tRes.TotalTime) > 1e-9 {
		t.Errorf("functional total %g != timing total %g", fRes.TotalTime, tRes.TotalTime)
	}
}

// On the calibrated hardware the header tax never exceeds the collective
// overheads, so every pair prefers stores and hybrid == pgas-fused exactly.
func TestHybridDefaultHardwareIsAllStores(t *testing.T) {
	cfg := clusterTestConfig(4)
	anyColl, _ := probeRoutes(t, cfg, DefaultHardware())
	if anyColl {
		t.Fatal("default hardware routed a pair through the collective; expected all-stores")
	}
	run := func(be Backend) *Result {
		s, err := NewSystem(cfg, DefaultHardware())
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(be)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	hres := run(&Hybrid{})
	pres := run(&PGASFused{})
	if hres.TotalTime != pres.TotalTime {
		t.Errorf("all-stores hybrid total %g != pgas-fused total %g", hres.TotalTime, pres.TotalTime)
	}
}

// With the header tax inflated on a single node, every pair crosses over and
// hybrid must delegate to the baseline wholesale — and stay bit-exact across
// the dedup × cache grid.
func TestHybridAllCollectiveMode(t *testing.T) {
	hw := headerTaxedHardware(0)
	for _, dedup := range []bool{false, true} {
		for _, cached := range []bool{false, true} {
			t.Run(fmt.Sprintf("dedup=%v,cache=%v", dedup, cached), func(t *testing.T) {
				cfg := clusterTestConfig(4)
				cfg.Dedup = dedup
				if cached {
					cfg.CacheFraction = 1e-8
				}
				anyColl, allColl := probeRoutes(t, cfg, hw)
				if !anyColl || !allColl {
					t.Fatalf("header-taxed single node: anyColl=%v allColl=%v, want all-collective", anyColl, allColl)
				}
				hybridCase(t, cfg, hw)
			})
		}
	}
}

// With the header tax inflated on a 2-node cluster, intra-node pairs cross
// over to the collective while cross-node pairs must stay on the one-sided
// proxy path — the genuinely mixed mode, where one batch carries both
// transports.
func TestHybridMixedMode(t *testing.T) {
	hw := headerTaxedHardware(2)
	for _, dedup := range []bool{false, true} {
		for _, cached := range []bool{false, true} {
			t.Run(fmt.Sprintf("dedup=%v,cache=%v", dedup, cached), func(t *testing.T) {
				cfg := clusterTestConfig(4)
				cfg.Dedup = dedup
				if cached {
					cfg.CacheFraction = 1e-8
				}
				anyColl, allColl := probeRoutes(t, cfg, hw)
				if !anyColl || allColl {
					t.Fatalf("header-taxed cluster: anyColl=%v allColl=%v, want mixed", anyColl, allColl)
				}
				hybridCase(t, cfg, hw)
			})
		}
	}
}

// TestHybridPinnedSimulatedTimes pins the simulated results of the two
// header-taxed modes — all-collective on one node, mixed on two — across
// dedup × cache × wire precision. hybridCase checks only bit-exactness and
// timing == functional, which a change shifting mixed-mode timing in both
// modes alike would pass; this table catches it. The values are exact: a
// refactor of the hybrid walk must not move any of them.
func TestHybridPinnedSimulatedTimes(t *testing.T) {
	cases := []struct {
		nodes         int
		dedup, cached bool
		prec          Precision
		total         sim.Duration
		perGPU        [][]trace.Component
	}{
		{0, false, false, FP32, 0.1986806588631351, [][]trace.Component{
			{{Name: CompComputation, Duration: 0.07538484447112179}, {Name: CompSyncUnpack, Duration: 0.12308726666666674}, {Name: CompComm, Duration: 0.00020848105867990116}},
			{{Name: CompComputation, Duration: 0.07536655415499534}, {Name: CompSyncUnpack, Duration: 0.12308726666666674}, {Name: CompComm, Duration: 0.0002267713748063671}},
			{{Name: CompComputation, Duration: 0.07528485740963052}, {Name: CompSyncUnpack, Duration: 0.12308733333333341}, {Name: CompComm, Duration: 0.00030846812017116046}},
			{{Name: CompComputation, Duration: 0.07544093477390958}, {Name: CompSyncUnpack, Duration: 0.12308733333333341}, {Name: CompComm, Duration: 0.00015239075589211157}},
		}},
		{0, false, false, FP16, 0.19878237853734326, [][]trace.Component{
			{{Name: CompComputation, Duration: 0.07543585350641593}, {Name: CompSyncUnpack, Duration: 0.12313827269019617}, {Name: CompComm, Duration: 0.00020818416818213503}},
			{{Name: CompComputation, Duration: 0.07541756319028949}, {Name: CompSyncUnpack, Duration: 0.12313827269019617}, {Name: CompComm, Duration: 0.00022647448430860098}},
			{{Name: CompComputation, Duration: 0.07533586192727762}, {Name: CompSyncUnpack, Duration: 0.1231383408627452}, {Name: CompComm, Duration: 0.0003081757473204459}},
			{{Name: CompComputation, Duration: 0.07549193929155666}, {Name: CompSyncUnpack, Duration: 0.1231383408627452}, {Name: CompComm, Duration: 0.00015209838304139703}},
		}},
		{0, false, true, FP32, 0.1986569324209047, [][]trace.Component{
			{{Name: CompComputation, Duration: 0.07537424607142057}, {Name: CompSyncUnpack, Duration: 0.1230872333333334}, {Name: CompComm, Duration: 0.00019538912726187185}},
			{{Name: CompComputation, Duration: 0.07535490412842388}, {Name: CompSyncUnpack, Duration: 0.12308722777777784}, {Name: CompComm, Duration: 0.00021471876256624542}},
			{{Name: CompComputation, Duration: 0.07524209018794625}, {Name: CompSyncUnpack, Duration: 0.12308728055555562}, {Name: CompComm, Duration: 0.00032750808765922776}},
			{{Name: CompComputation, Duration: 0.07542286561979007}, {Name: CompSyncUnpack, Duration: 0.12308728888888895}, {Name: CompComm, Duration: 0.00014675727120003548}},
		}},
		{0, false, true, FP16, 0.1987586687370435, [][]trace.Component{
			{{Name: CompComputation, Duration: 0.07542525391455786}, {Name: CompSyncUnpack, Duration: 0.12313823860392165}, {Name: CompComm, Duration: 0.00019511088653786923}},
			{{Name: CompComputation, Duration: 0.07540591190881607}, {Name: CompSyncUnpack, Duration: 0.12313823292287593}, {Name: CompComm, Duration: 0.00021444673843348458}},
			{{Name: CompComputation, Duration: 0.07529309395265216}, {Name: CompSyncUnpack, Duration: 0.12313828689281056}, {Name: CompComm, Duration: 0.0003272523869050706}},
			{{Name: CompComputation, Duration: 0.07547386950998618}, {Name: CompSyncUnpack, Duration: 0.12313829541437918}, {Name: CompComm, Duration: 0.00014648913726336005}},
		}},
		{0, true, false, FP32, 0.1856873924256102, [][]trace.Component{
			{{Name: CompComputation, Duration: 0.07536067533252158}, {Name: CompSyncUnpack, Duration: 0.08412118113986933}, {Name: CompComm, Duration: 0.00022242645256564594}},
			{{Name: CompComputation, Duration: 0.0753648595971722}, {Name: CompSyncUnpack, Duration: 0.056121138823529496}, {Name: CompComm, Duration: 0.0002182421879150312}},
			{{Name: CompComputation, Duration: 0.07528282644586695}, {Name: CompSyncUnpack, Duration: 0.08412122676601314}, {Name: CompComm, Duration: 0.00030027533922028643}},
			{{Name: CompComputation, Duration: 0.07541837040134063}, {Name: CompSyncUnpack, Duration: 0.09710426931764711}, {Name: CompComm, Duration: 0.00016473138374661564}},
		}},
		{0, true, false, FP16, 0.1857891098409948, [][]trace.Component{
			{{Name: CompComputation, Duration: 0.07541168355212945}, {Name: CompSyncUnpack, Duration: 0.08417218672418308}, {Name: CompComm, Duration: 0.00022212843265613513}},
			{{Name: CompComputation, Duration: 0.07541586838148598}, {Name: CompSyncUnpack, Duration: 0.056172144156862835}, {Name: CompComm, Duration: 0.00021794360329958906}},
			{{Name: CompComputation, Duration: 0.07533383021057286}, {Name: CompSyncUnpack, Duration: 0.08417223354248374}, {Name: CompComm, Duration: 0.00029998177421272296}},
			{{Name: CompComputation, Duration: 0.07546937460526221}, {Name: CompSyncUnpack, Duration: 0.0971552765960785}, {Name: CompComm, Duration: 0.00016443737952337445}},
		}},
		{0, true, true, FP32, 0.18566846583387148, [][]trace.Component{
			{{Name: CompComputation, Duration: 0.0753626870987154}, {Name: CompSyncUnpack, Duration: 0.08412115842091511}, {Name: CompComm, Duration: 0.00020151973254164957}},
			{{Name: CompComputation, Duration: 0.0753526590697978}, {Name: CompSyncUnpack, Duration: 0.08412117400000002}, {Name: CompComm, Duration: 0.00021153545376696378}},
			{{Name: CompComputation, Duration: 0.07524831800648346}, {Name: CompSyncUnpack, Duration: 0.110104245882353}, {Name: CompComm, Duration: 0.00031585190169664337}},
			{{Name: CompComputation, Duration: 0.07540912092680209}, {Name: CompSyncUnpack, Duration: 0.0971042302039216}, {Name: CompComm, Duration: 0.0001550612890703386}},
		}},
		{0, true, true, FP16, 0.18577020164804947, [][]trace.Component{
			{{Name: CompComputation, Duration: 0.07541369475361738}, {Name: CompSyncUnpack, Duration: 0.08417216350326805}, {Name: CompComm, Duration: 0.0002012416800529493}},
			{{Name: CompComputation, Duration: 0.07540366678744487}, {Name: CompSyncUnpack, Duration: 0.08417217883137264}, {Name: CompComm, Duration: 0.00021126349237928985}},
			{{Name: CompComputation, Duration: 0.07529932139471879}, {Name: CompSyncUnpack, Duration: 0.11015525209411772}, {Name: CompComm, Duration: 0.00031559657741307007}},
			{{Name: CompComputation, Duration: 0.075460124691508}, {Name: CompSyncUnpack, Duration: 0.09715523660392163}, {Name: CompComm, Duration: 0.00015479943447000225}},
		}},
		{2, false, false, FP32, 0.12119169863097813, [][]trace.Component{
			{{Name: CompFused, Duration: 0.07593515591896491}, {Name: CompComm, Duration: 0.00020540937867987927}, {Name: CompSyncUnpack, Duration: 0.04505113333333334}},
			{{Name: CompFused, Duration: 0.07591686560283845}, {Name: CompComm, Duration: 0.00022369969480634522}, {Name: CompSyncUnpack, Duration: 0.04505113333333334}},
			{{Name: CompFused, Duration: 0.07582595381747367}, {Name: CompComm, Duration: 0.00031461148017112445}, {Name: CompSyncUnpack, Duration: 0.04505106666666669}},
			{{Name: CompFused, Duration: 0.0759820311817527}, {Name: CompComm, Duration: 0.0001585341158920929}, {Name: CompSyncUnpack, Duration: 0.04505106666666669}},
		}},
		{2, false, false, FP16, 0.12120637583930394, [][]trace.Component{
			{{Name: CompFused, Duration: 0.07593510351425901}, {Name: CompComm, Duration: 0.0002051329681821562}, {Name: CompSyncUnpack, Duration: 0.04506613935686277}},
			{{Name: CompFused, Duration: 0.07591681319813257}, {Name: CompComm, Duration: 0.0002234232843085944}, {Name: CompSyncUnpack, Duration: 0.04506613935686277}},
			{{Name: CompFused, Duration: 0.07582595833512071}, {Name: CompComm, Duration: 0.00031427814732045214}, {Name: CompSyncUnpack, Duration: 0.04506607419607846}},
			{{Name: CompFused, Duration: 0.07598203569939975}, {Name: CompComm, Duration: 0.00015820078304141713}, {Name: CompSyncUnpack, Duration: 0.04506607419607846}},
		}},
		{2, false, true, FP32, 0.12117559562901552, [][]trace.Component{
			{{Name: CompFused, Duration: 0.07593061075115647}, {Name: CompComm, Duration: 0.00019386543341459728}, {Name: CompSyncUnpack, Duration: 0.04505111666666668}},
			{{Name: CompFused, Duration: 0.07591216296496711}, {Name: CompComm, Duration: 0.0002123132196039483}, {Name: CompSyncUnpack, Duration: 0.045051116666666675}},
			{{Name: CompFused, Duration: 0.07579606028044816}, {Name: CompComm, Duration: 0.0003284159041229036}, {Name: CompSyncUnpack, Duration: 0.045051055555555566}},
			{{Name: CompFused, Duration: 0.07597433269629443}, {Name: CompComm, Duration: 0.0001501434882766363}, {Name: CompSyncUnpack, Duration: 0.045051055555555566}},
		}},
		{2, false, true, FP16, 0.12119030562696424, [][]trace.Component{
			{{Name: CompFused, Duration: 0.0759305622742937}, {Name: CompComm, Duration: 0.0001936187003829283}, {Name: CompSyncUnpack, Duration: 0.04506612193725493}},
			{{Name: CompFused, Duration: 0.07591211954535926}, {Name: CompComm, Duration: 0.00021206142931736935}, {Name: CompSyncUnpack, Duration: 0.045066121811764726}},
			{{Name: CompFused, Duration: 0.07579606404515404}, {Name: CompComm, Duration: 0.0003281169295225872}, {Name: CompSyncUnpack, Duration: 0.04506606189281048}},
			{{Name: CompFused, Duration: 0.0759743365864905}, {Name: CompComm, Duration: 0.00014984438818613569}, {Name: CompSyncUnpack, Duration: 0.04506606208104577}},
		}},
		{2, true, false, FP32, 0.1226600899643181, [][]trace.Component{
			{{Name: CompFused, Duration: 0.0758328243350364}, {Name: CompComm, Duration: 0.00022631630222285856}, {Name: CompSyncUnpack, Duration: 0.03081999483189543}},
			{{Name: CompFused, Duration: 0.07580515767814422}, {Name: CompComm, Duration: 0.00025398295911504415}, {Name: CompSyncUnpack, Duration: 0.03067318966483662}},
			{{Name: CompFused, Duration: 0.07582167376323054}, {Name: CompComm, Duration: 0.0002374668740287196}, {Name: CompSyncUnpack, Duration: 0.031637870865359484}},
			{{Name: CompFused, Duration: 0.07588315045266135}, {Name: CompComm, Duration: 0.0001759901845979038}, {Name: CompSyncUnpack, Duration: 0.03149106729830067}},
		}},
		{2, true, false, FP16, 0.12267478533734977, [][]trace.Component{
			{{Name: CompFused, Duration: 0.07583279699072268}, {Name: CompComm, Duration: 0.00022605190113686446}, {Name: CompSyncUnpack, Duration: 0.030834990151111137}},
			{{Name: CompFused, Duration: 0.07580513954481086}, {Name: CompComm, Duration: 0.00025370934704867926}, {Name: CompSyncUnpack, Duration: 0.03068818741228761}},
			{{Name: CompFused, Duration: 0.07582167696323053}, {Name: CompComm, Duration: 0.00023717192862901873}, {Name: CompSyncUnpack, Duration: 0.03165285721830067}},
			{{Name: CompFused, Duration: 0.07588315409187703}, {Name: CompComm, Duration: 0.0001756947999825148}, {Name: CompSyncUnpack, Duration: 0.03150605589124185}},
		}},
		{2, true, true, FP32, 0.1226193955085402, [][]trace.Component{
			{{Name: CompFused, Duration: 0.07583750788454088}, {Name: CompComm, Duration: 0.00018095034792087183}, {Name: CompSyncUnpack, Duration: 0.030819985322091507}},
			{{Name: CompFused, Duration: 0.07583926439230268}, {Name: CompComm, Duration: 0.00017919384015907536}, {Name: CompSyncUnpack, Duration: 0.04567821427398694}},
			{{Name: CompFused, Duration: 0.0757785213942305}, {Name: CompComm, Duration: 0.00023993683823125833}, {Name: CompSyncUnpack, Duration: 0.0460753286211765}},
			{{Name: CompFused, Duration: 0.07588090900722955}, {Name: CompComm, Duration: 0.0001375492252321947}, {Name: CompSyncUnpack, Duration: 0.031491055195032695}},
		}},
		{2, true, true, FP16, 0.12263412039590071, [][]trace.Component{
			{{Name: CompFused, Duration: 0.07583748022650166}, {Name: CompComm, Duration: 0.00018071684155587103}, {Name: CompSyncUnpack, Duration: 0.030834980453071915}},
			{{Name: CompFused, Duration: 0.07583923960798893}, {Name: CompComm, Duration: 0.0001789574600686017}, {Name: CompSyncUnpack, Duration: 0.04569321170771244}},
			{{Name: CompFused, Duration: 0.0757785244059952}, {Name: CompComm, Duration: 0.00023967266206233184}, {Name: CompSyncUnpack, Duration: 0.04609032261019612}},
			{{Name: CompFused, Duration: 0.07588091252095504}, {Name: CompComm, Duration: 0.0001372845471024932}, {Name: CompSyncUnpack, Duration: 0.03150604272130722}},
		}},
	}
	for _, c := range cases {
		name := fmt.Sprintf("nodes=%d,dedup=%v,cache=%v,%v", c.nodes, c.dedup, c.cached, c.prec)
		t.Run(name, func(t *testing.T) {
			cfg := clusterTestConfig(4)
			cfg.Functional = false
			cfg.Dedup = c.dedup
			if c.cached {
				cfg.CacheFraction = 1e-8
			}
			cfg.WirePrecision = c.prec
			hw := headerTaxedHardware(c.nodes)
			anyColl, allColl := probeRoutes(t, cfg, hw)
			if wantAll := c.nodes == 0; !anyColl || allColl != wantAll {
				t.Fatalf("anyColl=%v allColl=%v, want anyColl=true allColl=%v", anyColl, allColl, wantAll)
			}
			s, err := NewSystem(cfg, hw)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run(&Hybrid{})
			if err != nil {
				t.Fatal(err)
			}
			if res.TotalTime != c.total {
				t.Errorf("TotalTime %v, want %v", res.TotalTime, c.total)
			}
			for g, want := range c.perGPU {
				got := res.PerGPU[g].Components()
				if len(got) != len(want) {
					t.Fatalf("GPU %d components %v, want %v", g, got, want)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("GPU %d component %d = %v, want %v", g, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// The adaptive promise: on the paper's weak-scaling sweep point the hybrid
// backend's total EMB time must not exceed the better pure backend. (On the
// calibrated machine it rides the store path everywhere, so it inherits the
// pgas-fused win over the baseline.)
func TestHybridNotSlowerThanPureBackends(t *testing.T) {
	cfg := WeakScalingConfig(4)
	cfg.Batches = 5
	run := func(be Backend) sim.Duration {
		s, err := NewSystem(cfg, DefaultHardware())
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(be)
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalTime
	}
	hybrid := run(&Hybrid{})
	base := run(&Baseline{})
	pgas := run(&PGASFused{})
	best := base
	if pgas < best {
		best = pgas
	}
	if hybrid > best*(1+1e-12) {
		t.Errorf("hybrid total %g exceeds min(baseline %g, pgas-fused %g)", hybrid, base, pgas)
	}
}
