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
	"baseline/single+dedup": {0.13348607385589298, [][]trace.Component{
		{{Name: CompComputation, Duration: 0.0751896800931437}, {Name: CompSyncUnpack, Duration: 0.015104034420915052}, {Name: CompComm, Duration: 0.00015834666772662764}},
		{{Name: CompComputation, Duration: 0.07517355112789424}, {Name: CompSyncUnpack, Duration: 0.043121077537254915}, {Name: CompComm, Duration: 0.000174414094514512}},
		{{Name: CompComputation, Duration: 0.07517809796807613}, {Name: CompSyncUnpack, Duration: 0.015104060041830097}, {Name: CompComm, Duration: 0.0001698549466403465}},
		{{Name: CompComputation, Duration: 0.07521871581449031}, {Name: CompSyncUnpack, Duration: 8.701852549021158e-05}, {Name: CompComm, Duration: 0.00012927402330308382}},
	}},
	"baseline/single+dedup+cache": {0.10544898459120135, [][]trace.Component{
		{{Name: CompComputation, Duration: 0.07517804210013136}, {Name: CompSyncUnpack, Duration: 8.701141960784989e-05}, {Name: CompComm, Duration: 0.00014991882802323914}},
		{{Name: CompComputation, Duration: 0.0751657961245103}, {Name: CompSyncUnpack, Duration: 0.030121046479738563}, {Name: CompComm, Duration: 0.00016210326518274407}},
		{{Name: CompComputation, Duration: 0.0751523252850477}, {Name: CompSyncUnpack, Duration: 8.701514248366307e-05}, {Name: CompComm, Duration: 0.00017556179695307067}},
		{{Name: CompComputation, Duration: 0.07521111249548297}, {Name: CompSyncUnpack, Duration: 8.701611503268356e-05}, {Name: CompComm, Duration: 0.00011681150959469769}},
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
	"baseline/cluster2+dedup": {0.13352181039743147, [][]trace.Component{
		{{Name: CompComputation, Duration: 0.0751896800931437}, {Name: CompSyncUnpack, Duration: 0.015104034420915052}, {Name: CompComm, Duration: 0.00019367705541894695}},
		{{Name: CompComputation, Duration: 0.07517355112789424}, {Name: CompSyncUnpack, Duration: 0.043121077537254915}, {Name: CompComm, Duration: 0.00020980602066837661}},
		{{Name: CompComputation, Duration: 0.07517809796807613}, {Name: CompSyncUnpack, Duration: 0.015104060041830111}, {Name: CompComm, Duration: 0.00020602225740957297}},
		{{Name: CompComputation, Duration: 0.07521871581449031}, {Name: CompSyncUnpack, Duration: 8.701852549021158e-05}, {Name: CompComm, Duration: 0.0001654044109953949}},
	}},
	"baseline/cluster2+dedup+cache": {0.10548457294812442, [][]trace.Component{
		{{Name: CompComputation, Duration: 0.07517804210013136}, {Name: CompSyncUnpack, Duration: 8.701141960784989e-05}, {Name: CompComm, Duration: 0.0001851502618693858}},
		{{Name: CompComputation, Duration: 0.0751657961245103}, {Name: CompSyncUnpack, Duration: 0.030121046479738563}, {Name: CompComm, Duration: 0.00019739623749046378}},
		{{Name: CompComputation, Duration: 0.0751523252850477}, {Name: CompSyncUnpack, Duration: 8.701514248366307e-05}, {Name: CompComm, Duration: 0.000211654769260744}},
		{{Name: CompComputation, Duration: 0.07521111249548297}, {Name: CompSyncUnpack, Duration: 8.701611503268356e-05}, {Name: CompComm, Duration: 0.0001528675588254834}},
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
	"baseline-direct-placement/single+dedup": {0.07543504414649124, [][]trace.Component{
		{{Name: CompComputation, Duration: 0.0751896800931437}, {Name: CompSyncUnpack, Duration: 8.70121986928131e-05}, {Name: CompComm, Duration: 0.00015834666772662764}},
		{{Name: CompComputation, Duration: 0.07517355112789424}, {Name: CompSyncUnpack, Duration: 8.701087058823193e-05}, {Name: CompComm, Duration: 0.00017441409451453976}},
		{{Name: CompComputation, Duration: 0.07517809796807613}, {Name: CompSyncUnpack, Duration: 8.701559738562986e-05}, {Name: CompComm, Duration: 0.0001698549466403465}},
		{{Name: CompComputation, Duration: 0.07521871581449031}, {Name: CompSyncUnpack, Duration: 8.70185254901977e-05}, {Name: CompComm, Duration: 0.00012927402330308382}},
	}},
	"baseline-direct-placement/single+dedup+cache": {0.07541497679743564, [][]trace.Component{
		{{Name: CompComputation, Duration: 0.07517804210013136}, {Name: CompSyncUnpack, Duration: 8.701141960784989e-05}, {Name: CompComm, Duration: 0.00014991882802324608}},
		{{Name: CompComputation, Duration: 0.0751657961245103}, {Name: CompSyncUnpack, Duration: 8.701036862744649e-05}, {Name: CompComm, Duration: 0.00016210326518276488}},
		{{Name: CompComputation, Duration: 0.0751523252850477}, {Name: CompSyncUnpack, Duration: 8.701514248366307e-05}, {Name: CompComm, Duration: 0.0001755617969530568}},
		{{Name: CompComputation, Duration: 0.07521111249548297}, {Name: CompSyncUnpack, Duration: 8.701611503267662e-05}, {Name: CompComm, Duration: 0.00011681150959471157}},
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
	"baseline-direct-placement/cluster2+dedup": {0.07547113917450532, [][]trace.Component{
		{{Name: CompComputation, Duration: 0.0751896800931437}, {Name: CompSyncUnpack, Duration: 8.70121986928131e-05}, {Name: CompComm, Duration: 0.00019367705541894}},
		{{Name: CompComputation, Duration: 0.07517355112789424}, {Name: CompSyncUnpack, Duration: 8.701087058823193e-05}, {Name: CompComm, Duration: 0.00020980602066839743}},
		{{Name: CompComputation, Duration: 0.07517809796807613}, {Name: CompSyncUnpack, Duration: 8.701559738562986e-05}, {Name: CompComm, Duration: 0.0002060222574095799}},
		{{Name: CompComputation, Duration: 0.07521871581449031}, {Name: CompSyncUnpack, Duration: 8.70185254901977e-05}, {Name: CompComm, Duration: 0.0001654044109953949}},
	}},
	"baseline-direct-placement/cluster2+dedup+cache": {0.0754509971471189, [][]trace.Component{
		{{Name: CompComputation, Duration: 0.07517804210013136}, {Name: CompSyncUnpack, Duration: 8.701141960784989e-05}, {Name: CompComm, Duration: 0.00018515026186939967}},
		{{Name: CompComputation, Duration: 0.0751657961245103}, {Name: CompSyncUnpack, Duration: 8.701036862744649e-05}, {Name: CompComm, Duration: 0.00019739623749046378}},
		{{Name: CompComputation, Duration: 0.0751523252850477}, {Name: CompSyncUnpack, Duration: 8.701514248366307e-05}, {Name: CompComm, Duration: 0.00021165476926075094}},
		{{Name: CompComputation, Duration: 0.07521111249548297}, {Name: CompSyncUnpack, Duration: 8.701611503267662e-05}, {Name: CompComm, Duration: 0.0001528675588254834}},
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
	"pgas-fused/single+dedup": {0.0760930031112033, [][]trace.Component{
		{{Name: CompFused, Duration: 0.07599973439079553}, {Name: CompSyncUnpack, Duration: 9.326197008096768e-05}},
		{{Name: CompFused, Duration: 0.07598342309394024}, {Name: CompSyncUnpack, Duration: 0.00010957193883168181}},
		{{Name: CompFused, Duration: 0.07598983415599453}, {Name: CompSyncUnpack, Duration: 0.00010316560357480006}},
		{{Name: CompFused, Duration: 0.07602804758007009}, {Name: CompSyncUnpack, Duration: 6.495510760378548e-05}},
	}},
	"pgas-fused/single+dedup+cache": {0.07608826628808271, [][]trace.Component{
		{{Name: CompFused, Duration: 0.07599370904932053}, {Name: CompSyncUnpack, Duration: 9.455156555958355e-05}},
		{{Name: CompFused, Duration: 0.07598143105229854}, {Name: CompSyncUnpack, Duration: 0.00010682851160116053}},
		{{Name: CompFused, Duration: 0.07598032984288196}, {Name: CompSyncUnpack, Duration: 0.00010793449487396523}},
		{{Name: CompFused, Duration: 0.07603305888017356}, {Name: CompSyncUnpack, Duration: 5.520643013137705e-05}},
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
	"pgas-fused/cluster2+dedup": {0.07589277956015465, [][]trace.Component{
		{{Name: CompFused, Duration: 0.0757324709858968}, {Name: CompSyncUnpack, Duration: 0.00016025231804870158}},
		{{Name: CompFused, Duration: 0.07571876214822122}, {Name: CompSyncUnpack, Duration: 0.0001726421910183927}},
		{{Name: CompFused, Duration: 0.07580561186933883}, {Name: CompSyncUnpack, Duration: 8.716650493346273e-05}},
		{{Name: CompFused, Duration: 0.07575697586458378}, {Name: CompSyncUnpack, Duration: 0.00013579472615910318}},
	}},
	"pgas-fused/cluster2+dedup+cache": {0.07588002152738889, [][]trace.Component{
		{{Name: CompFused, Duration: 0.0757267716020003}, {Name: CompSyncUnpack, Duration: 0.00015319559859120965}},
		{{Name: CompFused, Duration: 0.07571444275810338}, {Name: CompSyncUnpack, Duration: 0.00016420471961229796}},
		{{Name: CompFused, Duration: 0.07579537707180478}, {Name: CompSyncUnpack, Duration: 8.464377166252438e-05}},
		{{Name: CompFused, Duration: 0.07576075197806621}, {Name: CompSyncUnpack, Duration: 0.00011926087795011836}},
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
	"pgas-overlap-only/single+dedup": {0.1991083730510727, [][]trace.Component{
		{{Name: CompFused, Duration: 0.07599973439079553}, {Name: CompSyncUnpack, Duration: 0.1231085219936105}},
		{{Name: CompFused, Duration: 0.07598342309394028}, {Name: CompSyncUnpack, Duration: 0.123124855512688}},
		{{Name: CompFused, Duration: 0.07598983415599456}, {Name: CompSyncUnpack, Duration: 0.12311850833952256}},
		{{Name: CompFused, Duration: 0.07602804758007015}, {Name: CompSyncUnpack, Duration: 0.12308031435989146}},
	}},
	"pgas-overlap-only/single+dedup+cache": {0.1991036380841612, [][]trace.Component{
		{{Name: CompFused, Duration: 0.07599370904932057}, {Name: CompSyncUnpack, Duration: 0.1231098068126184}},
		{{Name: CompFused, Duration: 0.07598143105229858}, {Name: CompSyncUnpack, Duration: 0.1231220986985293}},
		{{Name: CompFused, Duration: 0.07598032984288194}, {Name: CompSyncUnpack, Duration: 0.1231232637968348}},
		{{Name: CompFused, Duration: 0.07603305888017356}, {Name: CompSyncUnpack, Duration: 0.12307056809287654}},
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
	"pgas-overlap-only/cluster2+dedup": {0.1989080432963639, [][]trace.Component{
		{{Name: CompFused, Duration: 0.0757324709858968}, {Name: CompSyncUnpack, Duration: 0.12317545678602265}},
		{{Name: CompFused, Duration: 0.07571876214822126}, {Name: CompSyncUnpack, Duration: 0.12318790475703154}},
		{{Name: CompFused, Duration: 0.07580561186933887}, {Name: CompSyncUnpack, Duration: 0.12310241582258058}},
		{{Name: CompFused, Duration: 0.0757569758645838}, {Name: CompSyncUnpack, Duration: 0.12315105397844678}},
	}},
	"pgas-overlap-only/cluster2+dedup+cache": {0.19889528797209483, [][]trace.Component{
		{{Name: CompFused, Duration: 0.07572677160200032}, {Name: CompSyncUnpack, Duration: 0.12316839529009449}},
		{{Name: CompFused, Duration: 0.0757144427581034}, {Name: CompSyncUnpack, Duration: 0.12317946326732478}},
		{{Name: CompFused, Duration: 0.07579537707180481}, {Name: CompSyncUnpack, Duration: 0.12309989529584561}},
		{{Name: CompFused, Duration: 0.0757607519780662}, {Name: CompSyncUnpack, Duration: 0.12313452254069529}},
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
