package retrieval

import (
	"testing"

	"pgasemb/internal/sim"
	"pgasemb/internal/trace"
)

// pinnedRun is one timing run's exact simulated result: the batch total and
// every GPU's component breakdown, in accumulation order.
type pinnedRun struct {
	total  sim.Duration
	perGPU [][]trace.Component
}

// checkPinned holds a registry-gate timing run to its pinned result. The gate
// itself checks timing == functional, which a change shifting both modes
// alike would pass; these exact values catch it. A refactor of any backend's
// walk must not move them.
func checkPinned(t *testing.T, label string, res *Result) {
	t.Helper()
	want, ok := pinnedTimes[label]
	if !ok {
		t.Fatalf("no pinned result for %q", label)
	}
	if res.TotalTime != want.total {
		t.Errorf("%s: TotalTime %v, want %v", label, res.TotalTime, want.total)
	}
	if len(res.PerGPU) != len(want.perGPU) {
		t.Fatalf("%s: %d GPUs, want %d", label, len(res.PerGPU), len(want.perGPU))
	}
	for g, w := range want.perGPU {
		got := res.PerGPU[g].Components()
		if len(got) != len(w) {
			t.Fatalf("%s: GPU %d components %v, want %v", label, g, got, w)
		}
		for i := range w {
			if got[i] != w[i] {
				t.Errorf("%s: GPU %d component %d = %v, want %v", label, g, i, got[i], w[i])
			}
		}
	}
}

// pinnedTimes holds the exact FP32 timing results of clusterTestConfig(4)
// for every registered backend on the one-node (DefaultHardware) and
// two-node (ClusterHardware(2)) machines, across dedup × cache, plus
// Replicas = 2 with and without the cache and no fault schedule. Keys are
// the registry gate's subtest labels.
var pinnedTimes = map[string]pinnedRun{
	"baseline/single": {0.1986806588631351, [][]trace.Component{
		{{Name: CompComputation, Duration: 0.07538484447112179}, {Name: CompSyncUnpack, Duration: 0.12308726666666674}, {Name: CompComm, Duration: 0.00020848105867990116}},
		{{Name: CompComputation, Duration: 0.07536655415499534}, {Name: CompSyncUnpack, Duration: 0.12308726666666674}, {Name: CompComm, Duration: 0.0002267713748063671}},
		{{Name: CompComputation, Duration: 0.07528485740963052}, {Name: CompSyncUnpack, Duration: 0.12308733333333341}, {Name: CompComm, Duration: 0.00030846812017116046}},
		{{Name: CompComputation, Duration: 0.07544093477390958}, {Name: CompSyncUnpack, Duration: 0.12308733333333341}, {Name: CompComm, Duration: 0.00015239075589211157}},
	}},
	"baseline/single+cache": {0.1986569324209047, [][]trace.Component{
		{{Name: CompComputation, Duration: 0.07537424607142057}, {Name: CompSyncUnpack, Duration: 0.1230872333333334}, {Name: CompComm, Duration: 0.00019538912726187185}},
		{{Name: CompComputation, Duration: 0.07535490412842388}, {Name: CompSyncUnpack, Duration: 0.12308722777777784}, {Name: CompComm, Duration: 0.00021471876256624542}},
		{{Name: CompComputation, Duration: 0.07524209018794625}, {Name: CompSyncUnpack, Duration: 0.12308728055555562}, {Name: CompComm, Duration: 0.00032750808765922776}},
		{{Name: CompComputation, Duration: 0.07542286561979007}, {Name: CompSyncUnpack, Duration: 0.12308728888888895}, {Name: CompComm, Duration: 0.00014675727120003548}},
	}},
	"baseline/single+dedup": {0.1856873924256102, [][]trace.Component{
		{{Name: CompComputation, Duration: 0.07536067533252158}, {Name: CompSyncUnpack, Duration: 0.08412118113986933}, {Name: CompComm, Duration: 0.00022242645256564594}},
		{{Name: CompComputation, Duration: 0.0753648595971722}, {Name: CompSyncUnpack, Duration: 0.056121138823529496}, {Name: CompComm, Duration: 0.0002182421879150312}},
		{{Name: CompComputation, Duration: 0.07528282644586695}, {Name: CompSyncUnpack, Duration: 0.08412122676601314}, {Name: CompComm, Duration: 0.00030027533922028643}},
		{{Name: CompComputation, Duration: 0.07541837040134063}, {Name: CompSyncUnpack, Duration: 0.09710426931764711}, {Name: CompComm, Duration: 0.00016473138374661564}},
	}},
	"baseline/single+dedup+cache": {0.18566846583387148, [][]trace.Component{
		{{Name: CompComputation, Duration: 0.0753626870987154}, {Name: CompSyncUnpack, Duration: 0.08412115842091511}, {Name: CompComm, Duration: 0.00020151973254164957}},
		{{Name: CompComputation, Duration: 0.0753526590697978}, {Name: CompSyncUnpack, Duration: 0.08412117400000002}, {Name: CompComm, Duration: 0.00021153545376696378}},
		{{Name: CompComputation, Duration: 0.07524831800648346}, {Name: CompSyncUnpack, Duration: 0.110104245882353}, {Name: CompComm, Duration: 0.00031585190169664337}},
		{{Name: CompComputation, Duration: 0.07540912092680209}, {Name: CompSyncUnpack, Duration: 0.0971042302039216}, {Name: CompComm, Duration: 0.0001550612890703386}},
	}},
	"baseline/single+replicas2": {0.159653592205996, [][]trace.Component{
		{{Name: CompComputation, Duration: 0.07537857350559271}, {Name: CompSyncUnpack, Duration: 0.08408720000000003}, {Name: CompComm, Duration: 0.00018775203373660662}},
		{{Name: CompComputation, Duration: 0.07536533480058691}, {Name: CompSyncUnpack, Duration: 0.0840871333333334}, {Name: CompComm, Duration: 0.0002009907387424091}},
		{{Name: CompComputation, Duration: 0.07531948707482994}, {Name: CompSyncUnpack, Duration: 0.08408720000000003}, {Name: CompComm, Duration: 0.00024683846449938956}},
		{{Name: CompComputation, Duration: 0.07543605735627584}, {Name: CompSyncUnpack, Duration: 0.08408726666666669}, {Name: CompComm, Duration: 0.00013026818305345716}},
	}},
	"baseline/single+replicas2+cache": {0.15964494766205353, [][]trace.Component{
		{{Name: CompComputation, Duration: 0.07536478548404418}, {Name: CompSyncUnpack, Duration: 0.08408717222222227}, {Name: CompComm, Duration: 0.00019294115236828668}},
		{{Name: CompComputation, Duration: 0.07535360148979307}, {Name: CompSyncUnpack, Duration: 0.0840871083333334}, {Name: CompComm, Duration: 0.00020408822354248818}},
		{{Name: CompComputation, Duration: 0.07529865903537186}, {Name: CompSyncUnpack, Duration: 0.08408716388888894}, {Name: CompComm, Duration: 0.0002589937548867563}},
		{{Name: CompComputation, Duration: 0.07542892771779355}, {Name: CompSyncUnpack, Duration: 0.08408723333333336}, {Name: CompComm, Duration: 0.00012878661092662405}},
	}},
	"baseline/cluster2": {0.19871652882005816, [][]trace.Component{
		{{Name: CompComputation, Duration: 0.07538484447112179}, {Name: CompSyncUnpack, Duration: 0.12308726666666674}, {Name: CompComm, Duration: 0.000243760246372203}},
		{{Name: CompComputation, Duration: 0.07536655415499534}, {Name: CompSyncUnpack, Duration: 0.12308726666666674}, {Name: CompComm, Duration: 0.0002620505624986273}},
		{{Name: CompComputation, Duration: 0.07528485740963052}, {Name: CompSyncUnpack, Duration: 0.12308733333333341}, {Name: CompComm, Duration: 0.000344338077094216}},
		{{Name: CompComputation, Duration: 0.07544093477390958}, {Name: CompSyncUnpack, Duration: 0.12308733333333341}, {Name: CompComm, Duration: 0.00018826071281516712}},
	}},
	"baseline/cluster2+cache": {0.19869238864244326, [][]trace.Component{
		{{Name: CompComputation, Duration: 0.07537424607142057}, {Name: CompSyncUnpack, Duration: 0.12308723333333339}, {Name: CompComm, Duration: 0.00023032842572342713}},
		{{Name: CompComputation, Duration: 0.07535490412842388}, {Name: CompSyncUnpack, Duration: 0.12308722777777785}, {Name: CompComm, Duration: 0.0002496703687201243}},
		{{Name: CompComputation, Duration: 0.07524209018794625}, {Name: CompSyncUnpack, Duration: 0.12308728055555564}, {Name: CompComm, Duration: 0.00036300123227466646}},
		{{Name: CompComputation, Duration: 0.07542286561979007}, {Name: CompSyncUnpack, Duration: 0.123087288888889}, {Name: CompComm, Duration: 0.00018222580043085468}},
	}},
	"baseline/cluster2+dedup": {0.18572304704714862, [][]trace.Component{
		{{Name: CompComputation, Duration: 0.07536067533252158}, {Name: CompSyncUnpack, Duration: 0.08412118113986934}, {Name: CompComm, Duration: 0.0002574779971810347}},
		{{Name: CompComputation, Duration: 0.0753648595971722}, {Name: CompSyncUnpack, Duration: 0.056121138823529496}, {Name: CompComm, Duration: 0.00025329373253039217}},
		{{Name: CompComputation, Duration: 0.07528282644586695}, {Name: CompSyncUnpack, Duration: 0.08412122676601315}, {Name: CompComm, Duration: 0.00033592996075872475}},
		{{Name: CompComputation, Duration: 0.07541837040134063}, {Name: CompSyncUnpack, Duration: 0.09710426931764712}, {Name: CompComm, Duration: 0.00020038600528505396}},
	}},
	"baseline/cluster2+dedup+cache": {0.1857038659132682, [][]trace.Component{
		{{Name: CompComputation, Duration: 0.0753626870987154}, {Name: CompSyncUnpack, Duration: 0.08412115842091511}, {Name: CompComm, Duration: 0.000236389812541659}},
		{{Name: CompComputation, Duration: 0.0753526590697978}, {Name: CompSyncUnpack, Duration: 0.08412117400000002}, {Name: CompComm, Duration: 0.0002464178414592691}},
		{{Name: CompComputation, Duration: 0.07524831800648346}, {Name: CompSyncUnpack, Duration: 0.110104245882353}, {Name: CompComm, Duration: 0.00035128813554281824}},
		{{Name: CompComputation, Duration: 0.07540912092680209}, {Name: CompSyncUnpack, Duration: 0.09710423020392163}, {Name: CompComm, Duration: 0.0001904852152242037}},
	}},
	"baseline/cluster2+replicas2": {0.15969744637488834, [][]trace.Component{
		{{Name: CompComputation, Duration: 0.07537874769907964}, {Name: CompSyncUnpack, Duration: 0.08408720000000006}, {Name: CompComm, Duration: 0.00023113662452661082}},
		{{Name: CompComputation, Duration: 0.07535395415944157}, {Name: CompSyncUnpack, Duration: 0.08408713333333337}, {Name: CompComm, Duration: 0.0002559301641646555}},
		{{Name: CompComputation, Duration: 0.07534234126031365}, {Name: CompSyncUnpack, Duration: 0.08408720000000006}, {Name: CompComm, Duration: 0.00026783844790798095}},
		{{Name: CompComputation, Duration: 0.07545475412387177}, {Name: CompSyncUnpack, Duration: 0.08408726666666669}, {Name: CompComm, Duration: 0.00015542558434986087}},
	}},
	"baseline/cluster2+replicas2+cache": {0.15967079349771393, [][]trace.Component{
		{{Name: CompComputation, Duration: 0.07537201556848605}, {Name: CompSyncUnpack, Duration: 0.08408717222222227}, {Name: CompComm, Duration: 0.00021124921127912283}},
		{{Name: CompComputation, Duration: 0.07533901090632332}, {Name: CompSyncUnpack, Duration: 0.0840871083333334}, {Name: CompComm, Duration: 0.0002442538734418395}},
		{{Name: CompComputation, Duration: 0.07532631828327505}, {Name: CompSyncUnpack, Duration: 0.08408716388888894}, {Name: CompComm, Duration: 0.00025724188110552715}},
		{{Name: CompComputation, Duration: 0.07542826528737774}, {Name: CompSyncUnpack, Duration: 0.08408723333333336}, {Name: CompComm, Duration: 0.00015529487700281439}},
	}},
	"baseline-direct-placement/single": {0.07562932552980167, [][]trace.Component{
		{{Name: CompComputation, Duration: 0.07538484447112179}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}, {Name: CompComm, Duration: 0.00020848105867988728}},
		{{Name: CompComputation, Duration: 0.07536655415499534}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}, {Name: CompComm, Duration: 0.0002267713748063463}},
		{{Name: CompComputation, Duration: 0.07528485740963052}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}, {Name: CompComm, Duration: 0.0003084681201711466}},
		{{Name: CompComputation, Duration: 0.07544093477390958}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}, {Name: CompComm, Duration: 0.0001523907558920977}},
	}},
	"baseline-direct-placement/single+cache": {0.07560563519868241, [][]trace.Component{
		{{Name: CompComputation, Duration: 0.07537424607142057}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}, {Name: CompComm, Duration: 0.00019538912726185798}},
		{{Name: CompComputation, Duration: 0.07535490412842388}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}, {Name: CompComm, Duration: 0.0002147187625662246}},
		{{Name: CompComputation, Duration: 0.07524209018794625}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}, {Name: CompComm, Duration: 0.0003275080876592347}},
		{{Name: CompComputation, Duration: 0.07542286561979007}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}, {Name: CompComm, Duration: 0.00014675727120003548}},
	}},
	"baseline-direct-placement/single+dedup": {0.0756701110138454, [][]trace.Component{
		{{Name: CompComputation, Duration: 0.07536067533252158}, {Name: CompSyncUnpack, Duration: 7.000336209149818e-05}, {Name: CompComm, Duration: 0.00022242645256564594}},
		{{Name: CompComputation, Duration: 0.0753648595971722}, {Name: CompSyncUnpack, Duration: 8.700549019607581e-05}, {Name: CompComm, Duration: 0.00021824218791501732}},
		{{Name: CompComputation, Duration: 0.07528282644586695}, {Name: CompSyncUnpack, Duration: 7.000454379084767e-05}, {Name: CompComm, Duration: 0.0003002753392202795}},
		{{Name: CompComputation, Duration: 0.07541837040134063}, {Name: CompSyncUnpack, Duration: 5.300265098038756e-05}, {Name: CompComm, Duration: 0.00016473138374660176}},
	}},
	"baseline-direct-placement/single+dedup+cache": {0.07565121098811976, [][]trace.Component{
		{{Name: CompComputation, Duration: 0.0753626870987154}, {Name: CompSyncUnpack, Duration: 7.000286535947461e-05}, {Name: CompComm, Duration: 0.00020151973254162875}},
		{{Name: CompComputation, Duration: 0.0753526590697978}, {Name: CompSyncUnpack, Duration: 7.000177777777283e-05}, {Name: CompComm, Duration: 0.00021153545376692215}},
		{{Name: CompComputation, Duration: 0.07524831800648346}, {Name: CompSyncUnpack, Duration: 5.3001437908487686e-05}, {Name: CompComm, Duration: 0.00031585190169662256}},
		{{Name: CompComputation, Duration: 0.07540912092680209}, {Name: CompSyncUnpack, Duration: 5.3002426143786835e-05}, {Name: CompComm, Duration: 0.0001550612890703039}},
	}},
	"baseline-direct-placement/single+replicas2": {0.07560232553932929, [][]trace.Component{
		{{Name: CompComputation, Duration: 0.07537857350559271}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}, {Name: CompComm, Duration: 0.00018775203373657887}},
		{{Name: CompComputation, Duration: 0.07536533480058691}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}, {Name: CompComm, Duration: 0.00020099073874238135}},
		{{Name: CompComputation, Duration: 0.07531948707482994}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}, {Name: CompComm, Duration: 0.0002468384644993618}},
		{{Name: CompComputation, Duration: 0.07543605735627584}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}, {Name: CompComm, Duration: 0.0001302681830534433}},
	}},
	"baseline-direct-placement/single+replicas2+cache": {0.07559372663641248, [][]trace.Component{
		{{Name: CompComputation, Duration: 0.07536478548404418}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}, {Name: CompComm, Duration: 0.00019294115236830056}},
		{{Name: CompComputation, Duration: 0.07535360148979307}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}, {Name: CompComm, Duration: 0.00020408822354248818}},
		{{Name: CompComputation, Duration: 0.07529865903537186}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}, {Name: CompComm, Duration: 0.0002589937548867771}},
		{{Name: CompComputation, Duration: 0.07542892771779355}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}, {Name: CompComm, Duration: 0.00012878661092661017}},
	}},
	"baseline-direct-placement/cluster2": {0.07566519548672475, [][]trace.Component{
		{{Name: CompComputation, Duration: 0.07538484447112179}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}, {Name: CompComm, Duration: 0.00024376024637219607}},
		{{Name: CompComputation, Duration: 0.07536655415499534}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}, {Name: CompComm, Duration: 0.0002620505624986412}},
		{{Name: CompComputation, Duration: 0.07528485740963052}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}, {Name: CompComm, Duration: 0.00034433807709423683}},
		{{Name: CompComputation, Duration: 0.07544093477390958}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}, {Name: CompComm, Duration: 0.00018826071281518794}},
	}},
	"baseline-direct-placement/cluster2+cache": {0.0756410914202209, [][]trace.Component{
		{{Name: CompComputation, Duration: 0.07537424607142057}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}, {Name: CompComm, Duration: 0.0002303284257234063}},
		{{Name: CompComputation, Duration: 0.07535490412842388}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}, {Name: CompComm, Duration: 0.0002496703687201035}},
		{{Name: CompComputation, Duration: 0.07524209018794625}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}, {Name: CompComm, Duration: 0.00036300123227464565}},
		{{Name: CompComputation, Duration: 0.07542286561979007}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}, {Name: CompComm, Duration: 0.00018222580043082692}},
	}},
	"baseline-direct-placement/cluster2+dedup": {0.07570556871230695, [][]trace.Component{
		{{Name: CompComputation, Duration: 0.07536067533252158}, {Name: CompSyncUnpack, Duration: 7.000336209149818e-05}, {Name: CompComm, Duration: 0.0002574779971810416}},
		{{Name: CompComputation, Duration: 0.0753648595971722}, {Name: CompSyncUnpack, Duration: 8.700549019607581e-05}, {Name: CompComm, Duration: 0.000253293732530413}},
		{{Name: CompComputation, Duration: 0.07528282644586695}, {Name: CompSyncUnpack, Duration: 7.000454379084767e-05}, {Name: CompComm, Duration: 0.00033592996075875944}},
		{{Name: CompComputation, Duration: 0.07541837040134063}, {Name: CompSyncUnpack, Duration: 5.300265098038756e-05}, {Name: CompComm, Duration: 0.00020038600528508171}},
	}},
	"baseline-direct-placement/cluster2+dedup+cache": {0.07568626744036713, [][]trace.Component{
		{{Name: CompComputation, Duration: 0.0753626870987154}, {Name: CompSyncUnpack, Duration: 7.000286535947461e-05}, {Name: CompComm, Duration: 0.00023638981254163818}},
		{{Name: CompComputation, Duration: 0.0753526590697978}, {Name: CompSyncUnpack, Duration: 7.000177777777283e-05}, {Name: CompComm, Duration: 0.00024641784145924134}},
		{{Name: CompComputation, Duration: 0.07524831800648346}, {Name: CompSyncUnpack, Duration: 5.3001437908487686e-05}, {Name: CompComm, Duration: 0.00035128813554278354}},
		{{Name: CompComputation, Duration: 0.07540912092680209}, {Name: CompSyncUnpack, Duration: 5.3002426143786835e-05}, {Name: CompComm, Duration: 0.00019048521522415512}},
	}},
	"baseline-direct-placement/cluster2+replicas2": {0.07564617970822161, [][]trace.Component{
		{{Name: CompComputation, Duration: 0.07537874769907964}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}, {Name: CompComm, Duration: 0.00023113662452659}},
		{{Name: CompComputation, Duration: 0.07535395415944157}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}, {Name: CompComm, Duration: 0.0002559301641646555}},
		{{Name: CompComputation, Duration: 0.07534234126031365}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}, {Name: CompComm, Duration: 0.00026783844790796013}},
		{{Name: CompComputation, Duration: 0.07545475412387177}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}, {Name: CompComm, Duration: 0.00015542558434984005}},
	}},
	"baseline-direct-placement/cluster2+replicas2+cache": {0.07561956016438058, [][]trace.Component{
		{{Name: CompComputation, Duration: 0.07537201556848605}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}, {Name: CompComm, Duration: 0.00021124921127915058}},
		{{Name: CompComputation, Duration: 0.07533901090632332}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}, {Name: CompComm, Duration: 0.0002442538734418742}},
		{{Name: CompComputation, Duration: 0.07532631828327505}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}, {Name: CompComm, Duration: 0.000257241881105541}},
		{{Name: CompComputation, Duration: 0.07542826528737774}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}, {Name: CompComm, Duration: 0.00015529487700284214}},
	}},
	"pgas-fused/single": {0.07632649713233561, [][]trace.Component{
		{{Name: CompFused, Duration: 0.0761966657228865}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}},
		{{Name: CompFused, Duration: 0.07617837540676006}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}},
		{{Name: CompFused, Duration: 0.07609653274139523}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}},
		{{Name: CompFused, Duration: 0.07625257938567429}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}},
	}},
	"pgas-fused/single+cache": {0.07631341533517116, [][]trace.Component{
		{{Name: CompFused, Duration: 0.07619480487226954}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}},
		{{Name: CompFused, Duration: 0.07617654441210475}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}},
		{{Name: CompFused, Duration: 0.0760728491792288}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}},
		{{Name: CompFused, Duration: 0.07625129120241679}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}},
	}},
	"pgas-fused/single+dedup": {0.07633270093045635, [][]trace.Component{
		{{Name: CompFused, Duration: 0.07617466951446522}, {Name: CompSyncUnpack, Duration: 0.00015302554932446547}},
		{{Name: CompFused, Duration: 0.07617732978662756}, {Name: CompSyncUnpack, Duration: 0.00015536740526670215}},
		{{Name: CompFused, Duration: 0.07609909070828044}, {Name: CompSyncUnpack, Duration: 0.00022860553720859336}},
		{{Name: CompFused, Duration: 0.07623167925410901}, {Name: CompSyncUnpack, Duration: 9.101509856955167e-05}},
	}},
	"pgas-fused/single+dedup+cache": {0.07632299288147126, [][]trace.Component{
		{{Name: CompFused, Duration: 0.07618385251910016}, {Name: CompSyncUnpack, Duration: 0.0001341373140050818}},
		{{Name: CompFused, Duration: 0.07617453100926685}, {Name: CompSyncUnpack, Duration: 0.0001434577362566941}},
		{{Name: CompFused, Duration: 0.0760821648729904}, {Name: CompSyncUnpack, Duration: 0.000230823532663859}},
		{{Name: CompFused, Duration: 0.0762385271920847}, {Name: CompSyncUnpack, Duration: 7.446220180486532e-05}},
	}},
	"pgas-fused/single+replicas2": {0.07602606866783895, [][]trace.Component{
		{{Name: CompFused, Duration: 0.07591138238312775}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}},
		{{Name: CompFused, Duration: 0.07590656944843002}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}},
		{{Name: CompFused, Duration: 0.07587237956110443}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}},
		{{Name: CompFused, Duration: 0.07597715376411898}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}},
	}},
	"pgas-fused/single+replicas2+cache": {0.07602797413996906, [][]trace.Component{
		{{Name: CompFused, Duration: 0.0759056492973133}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}},
		{{Name: CompFused, Duration: 0.07590207749808127}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}},
		{{Name: CompFused, Duration: 0.07586154910348854}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}},
		{{Name: CompFused, Duration: 0.07598196408822179}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}},
	}},
	"pgas-fused/cluster2": {0.07633750225233561, [][]trace.Component{
		{{Name: CompFused, Duration: 0.0762057425228865}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}},
		{{Name: CompFused, Duration: 0.07618745220676007}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}},
		{{Name: CompFused, Duration: 0.07609653274139523}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}},
		{{Name: CompFused, Duration: 0.07625257938567429}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}},
	}},
	"pgas-fused/cluster2+cache": {0.07632441917517116, [][]trace.Component{
		{{Name: CompFused, Duration: 0.07620387655226954}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}},
		{{Name: CompFused, Duration: 0.07618561097210477}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}},
		{{Name: CompFused, Duration: 0.07607284917922881}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}},
		{{Name: CompFused, Duration: 0.07625129120241679}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}},
	}},
	"pgas-fused/cluster2+dedup": {0.07626507532933638, [][]trace.Component{
		{{Name: CompFused, Duration: 0.07609879719344619}, {Name: CompSyncUnpack, Duration: 0.00016622032151111105}},
		{{Name: CompFused, Duration: 0.07607418039119065}, {Name: CompSyncUnpack, Duration: 0.0001908281167078106}},
		{{Name: CompFused, Duration: 0.07608726442575132}, {Name: CompSyncUnpack, Duration: 0.0001778092471144653}},
		{{Name: CompFused, Duration: 0.07615156300854199}, {Name: CompSyncUnpack, Duration: 0.00011350325726497759}},
	}},
	"pgas-fused/cluster2+dedup+cache": {0.0762339902349823, [][]trace.Component{
		{{Name: CompFused, Duration: 0.07610829182465528}, {Name: CompSyncUnpack, Duration: 0.00012564679411787572}},
		{{Name: CompFused, Duration: 0.07611200574282886}, {Name: CompSyncUnpack, Duration: 0.00012192187672859997}},
		{{Name: CompFused, Duration: 0.0760534548360896}, {Name: CompSyncUnpack, Duration: 0.0001792015217685107}},
		{{Name: CompFused, Duration: 0.07615636584383087}, {Name: CompSyncUnpack, Duration: 7.761893232791084e-05}},
	}},
	"pgas-fused/cluster2+replicas2": {0.07626081957047659, [][]trace.Component{
		{{Name: CompFused, Duration: 0.07621435244888357}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}},
		{{Name: CompFused, Duration: 0.07561471069800366}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}},
		{{Name: CompFused, Duration: 0.07617515013784867}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}},
		{{Name: CompFused, Duration: 0.07571547226243386}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}},
	}},
	"pgas-fused/cluster2+replicas2+cache": {0.07625876703215748, [][]trace.Component{
		{{Name: CompFused, Duration: 0.07621565910958394}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}},
		{{Name: CompFused, Duration: 0.07560539567648863}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}},
		{{Name: CompFused, Duration: 0.0761695525497536}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}},
		{{Name: CompFused, Duration: 0.07569895272189722}, {Name: CompSyncUnpack, Duration: 3.599999999999784e-05}},
	}},
	"pgas-overlap-only/single": {0.1993417860212246, [][]trace.Component{
		{{Name: CompFused, Duration: 0.07619666572288653}, {Name: CompSyncUnpack, Duration: 0.12305126666666674}},
		{{Name: CompFused, Duration: 0.07617837540676009}, {Name: CompSyncUnpack, Duration: 0.1230512666666667}},
		{{Name: CompFused, Duration: 0.07609653274139522}, {Name: CompSyncUnpack, Duration: 0.1230513333333334}},
		{{Name: CompFused, Duration: 0.07625257938567424}, {Name: CompSyncUnpack, Duration: 0.1230513333333334}},
	}},
	"pgas-overlap-only/single+cache": {0.19932866811294897, [][]trace.Component{
		{{Name: CompFused, Duration: 0.07619480487226954}, {Name: CompSyncUnpack, Duration: 0.1230512333333334}},
		{{Name: CompFused, Duration: 0.07617654441210472}, {Name: CompSyncUnpack, Duration: 0.12305122777777787}},
		{{Name: CompFused, Duration: 0.07607284917922882}, {Name: CompSyncUnpack, Duration: 0.12305128055555561}},
		{{Name: CompFused, Duration: 0.07625129120241678}, {Name: CompSyncUnpack, Duration: 0.12305128888888897}},
	}},
	"pgas-overlap-only/single+dedup": {0.19934795559058718, [][]trace.Component{
		{{Name: CompFused, Duration: 0.07617466951446525}, {Name: CompSyncUnpack, Duration: 0.12316826940945524}},
		{{Name: CompFused, Duration: 0.07617732978662758}, {Name: CompSyncUnpack, Duration: 0.1231705980261818}},
		{{Name: CompFused, Duration: 0.07609909070828044}, {Name: CompSyncUnpack, Duration: 0.12324390099341784}},
		{{Name: CompFused, Duration: 0.07623167925410902}, {Name: CompSyncUnpack, Duration: 0.12310633466981148}},
	}},
	"pgas-overlap-only/single+dedup+cache": {0.19933822030107914, [][]trace.Component{
		{{Name: CompFused, Duration: 0.07618385251910018}, {Name: CompSyncUnpack, Duration: 0.12314935944864566}},
		{{Name: CompFused, Duration: 0.07617453100926685}, {Name: CompSyncUnpack, Duration: 0.12315866984736784}},
		{{Name: CompFused, Duration: 0.0760821648729904}, {Name: CompSyncUnpack, Duration: 0.1232460970947554}},
		{{Name: CompFused, Duration: 0.07623852719208468}, {Name: CompSyncUnpack, Duration: 0.12308974310899448}},
	}},
	"pgas-overlap-only/single+replicas2": {0.16004131311228342, [][]trace.Component{
		{{Name: CompFused, Duration: 0.07591138238312772}, {Name: CompSyncUnpack, Duration: 0.08405120000000002}},
		{{Name: CompFused, Duration: 0.07590656944843005}, {Name: CompSyncUnpack, Duration: 0.08405113333333336}},
		{{Name: CompFused, Duration: 0.07587237956110443}, {Name: CompSyncUnpack, Duration: 0.08405120000000002}},
		{{Name: CompFused, Duration: 0.075977153764119}, {Name: CompSyncUnpack, Duration: 0.08405126666666668}},
	}},
	"pgas-overlap-only/single+replicas2+cache": {0.16004318802885797, [][]trace.Component{
		{{Name: CompFused, Duration: 0.07590564929731332}, {Name: CompSyncUnpack, Duration: 0.08405117222222226}},
		{{Name: CompFused, Duration: 0.07590207749808124}, {Name: CompSyncUnpack, Duration: 0.08405110833333339}},
		{{Name: CompFused, Duration: 0.07586154910348852}, {Name: CompSyncUnpack, Duration: 0.08405116388888893}},
		{{Name: CompFused, Duration: 0.0759819640882218}, {Name: CompSyncUnpack, Duration: 0.08405123333333335}},
	}},
	"pgas-overlap-only/cluster2": {0.1993478372212246, [][]trace.Component{
		{{Name: CompFused, Duration: 0.07620574252288653}, {Name: CompSyncUnpack, Duration: 0.12305126666666671}},
		{{Name: CompFused, Duration: 0.0761874522067601}, {Name: CompSyncUnpack, Duration: 0.12305126666666674}},
		{{Name: CompFused, Duration: 0.07609653274139522}, {Name: CompSyncUnpack, Duration: 0.1230513333333334}},
		{{Name: CompFused, Duration: 0.07625257938567424}, {Name: CompSyncUnpack, Duration: 0.12305133333333339}},
	}},
	"pgas-overlap-only/cluster2+cache": {0.19933471547294895, [][]trace.Component{
		{{Name: CompFused, Duration: 0.07620387655226954}, {Name: CompSyncUnpack, Duration: 0.1230512333333334}},
		{{Name: CompFused, Duration: 0.07618561097210476}, {Name: CompSyncUnpack, Duration: 0.12305122777777784}},
		{{Name: CompFused, Duration: 0.07607284917922882}, {Name: CompSyncUnpack, Duration: 0.12305128055555563}},
		{{Name: CompFused, Duration: 0.07625129120241678}, {Name: CompSyncUnpack, Duration: 0.12305128888888896}},
	}},
	"pgas-overlap-only/cluster2+dedup": {0.199280321234173, [][]trace.Component{
		{{Name: CompFused, Duration: 0.07609879719344619}, {Name: CompSyncUnpack, Duration: 0.12318141491628239}},
		{{Name: CompFused, Duration: 0.07607418039119068}, {Name: CompSyncUnpack, Duration: 0.12320605053631568}},
		{{Name: CompFused, Duration: 0.07608726442575131}, {Name: CompSyncUnpack, Duration: 0.12319304482619947}},
		{{Name: CompFused, Duration: 0.07615156300854196}, {Name: CompSyncUnpack, Duration: 0.12312875672785326}},
	}},
	"pgas-overlap-only/cluster2+dedup+cache": {0.1992492018744595, [][]trace.Component{
		{{Name: CompFused, Duration: 0.07610829182465527}, {Name: CompSyncUnpack, Duration: 0.1231408342320264}},
		{{Name: CompFused, Duration: 0.07611200574282888}, {Name: CompSyncUnpack, Duration: 0.12313713357607509}},
		{{Name: CompFused, Duration: 0.07605345483608962}, {Name: CompSyncUnpack, Duration: 0.12319447269170318}},
		{{Name: CompFused, Duration: 0.07615636584383088}, {Name: CompSyncUnpack, Duration: 0.12309282895062859}},
	}},
	"pgas-overlap-only/cluster2+replicas2": {0.16027106565047666, [][]trace.Component{
		{{Name: CompFused, Duration: 0.07621435244888358}, {Name: CompSyncUnpack, Duration: 0.08405120000000005}},
		{{Name: CompFused, Duration: 0.07561471069800366}, {Name: CompSyncUnpack, Duration: 0.08405113333333337}},
		{{Name: CompFused, Duration: 0.07617515013784867}, {Name: CompSyncUnpack, Duration: 0.08405120000000002}},
		{{Name: CompFused, Duration: 0.07571547226243386}, {Name: CompSyncUnpack, Duration: 0.08405126666666668}},
	}},
	"pgas-overlap-only/cluster2+replicas2+cache": {0.16026897999660195, [][]trace.Component{
		{{Name: CompFused, Duration: 0.07621565910958394}, {Name: CompSyncUnpack, Duration: 0.08405117222222226}},
		{{Name: CompFused, Duration: 0.07560539567648863}, {Name: CompSyncUnpack, Duration: 0.08405110833333339}},
		{{Name: CompFused, Duration: 0.0761695525497536}, {Name: CompSyncUnpack, Duration: 0.08405116388888893}},
		{{Name: CompFused, Duration: 0.07569895272189722}, {Name: CompSyncUnpack, Duration: 0.08405123333333335}},
	}},
}
