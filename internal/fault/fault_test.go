package fault

import (
	"math"
	"strings"
	"testing"
)

// The nil schedule and the zero schedule are both the healthy machine: every
// query must return the identity answer.
func TestEmptyScheduleIsHealthy(t *testing.T) {
	for name, s := range map[string]*Schedule{"nil": nil, "zero": {}} {
		if !s.Empty() {
			t.Errorf("%s schedule not Empty()", name)
		}
		if s.HasProxyDrops() {
			t.Errorf("%s schedule reports proxy drops", name)
		}
		if s.AnyActive(0) || s.AnyActive(100) {
			t.Errorf("%s schedule reports active faults", name)
		}
		if f := s.LinkFactor(3, 0, 1); f != 1 {
			t.Errorf("%s schedule LinkFactor = %g, want 1", name, f)
		}
		if f := s.NICFactor(3, 0, 0); f != 1 {
			t.Errorf("%s schedule NICFactor = %g, want 1", name, f)
		}
		if f := s.Slowdown(3, 1); f != 1 {
			t.Errorf("%s schedule Slowdown = %g, want 1", name, f)
		}
		if p := s.DropProb(3, 0, 1); p != 0 {
			t.Errorf("%s schedule DropProb = %g, want 0", name, p)
		}
		if s.Drops(3, 0, 1, 7, 0) {
			t.Errorf("%s schedule drops a delivery", name)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%s schedule invalid: %v", name, err)
		}
	}
}

// Windows cover [FromBatch, ToBatch); a non-positive ToBatch never expires.
func TestEventWindows(t *testing.T) {
	s := &Schedule{Events: []Event{
		{Kind: Straggler, FromBatch: 2, ToBatch: 5, GPU: 0, Factor: 2},
		{Kind: LinkDegrade, FromBatch: 4, Src: 0, Dst: 1, Factor: 0.5},
	}}
	wantSlow := map[int]float64{0: 1, 1: 1, 2: 2, 3: 2, 4: 2, 5: 1, 100: 1}
	for b, want := range wantSlow {
		if got := s.Slowdown(b, 0); got != want {
			t.Errorf("Slowdown(batch %d) = %g, want %g", b, got, want)
		}
	}
	wantLink := map[int]float64{0: 1, 3: 1, 4: 0.5, 100: 0.5}
	for b, want := range wantLink {
		if got := s.LinkFactor(b, 0, 1); got != want {
			t.Errorf("LinkFactor(batch %d) = %g, want %g", b, got, want)
		}
	}
	for b, want := range map[int]bool{0: false, 1: false, 2: true, 5: true, 100: true} {
		if got := s.AnyActive(b); got != want {
			t.Errorf("AnyActive(batch %d) = %v, want %v", b, got, want)
		}
	}
}

// Overlapping degradations multiply; overlapping drop events combine as
// independent loss processes; wildcards (Rail/Src/Node < 0) match everything.
func TestFactorsCompose(t *testing.T) {
	s := &Schedule{Events: []Event{
		{Kind: LinkDegrade, Src: 0, Dst: 1, Factor: 0.5},
		{Kind: LinkDegrade, Src: 0, Dst: 1, Factor: 0.25},
		{Kind: NICDegrade, Node: 0, Rail: -1, Factor: 0.3},
		{Kind: NICDegrade, Node: 0, Rail: 2, Factor: 0.5},
		{Kind: ProxyDrop, Src: -1, Node: -1, DropProb: 0.5},
		{Kind: ProxyDrop, Src: 0, Node: 1, DropProb: 0.5},
	}}
	if f := s.LinkFactor(0, 0, 1); f != 0.125 {
		t.Errorf("stacked LinkFactor = %g, want 0.125", f)
	}
	if f := s.LinkFactor(0, 1, 0); f != 1 {
		t.Errorf("reverse direction LinkFactor = %g, want 1 (links are directed)", f)
	}
	if f := s.NICFactor(0, 0, 2); f != 0.15 {
		t.Errorf("rail 2 NICFactor = %g, want 0.15 (wildcard x specific)", f)
	}
	if f := s.NICFactor(0, 0, 0); f != 0.3 {
		t.Errorf("rail 0 NICFactor = %g, want 0.3", f)
	}
	if f := s.NICFactor(0, 1, 0); f != 1 {
		t.Errorf("healthy node NICFactor = %g, want 1", f)
	}
	if p := s.DropProb(0, 0, 1); p != 0.75 {
		t.Errorf("stacked DropProb = %g, want 0.75 (1 - 0.5*0.5)", p)
	}
	if p := s.DropProb(0, 2, 0); p != 0.5 {
		t.Errorf("wildcard-only DropProb = %g, want 0.5", p)
	}
}

// Drop decisions are a pure function of (seed, pe, node, seq, attempt): the
// same query always answers the same, the empirical rate tracks DropProb,
// and a different seed replays a different loss pattern.
func TestDropsDeterministicAndCalibrated(t *testing.T) {
	mk := func(seed uint64) *Schedule {
		return &Schedule{Seed: seed, Events: []Event{
			{Kind: ProxyDrop, Src: -1, Node: -1, DropProb: 0.3},
		}}
	}
	a, b := mk(42), mk(42)
	const n = 10000
	drops, diffSeed := 0, 0
	other := mk(43)
	for seq := int64(0); seq < n; seq++ {
		got := a.Drops(0, 1, 2, seq, 0)
		if got != b.Drops(0, 1, 2, seq, 0) {
			t.Fatalf("same-seed schedules disagree at seq %d", seq)
		}
		if got != a.Drops(0, 1, 2, seq, 0) {
			t.Fatalf("repeated query changed its answer at seq %d", seq)
		}
		if got {
			drops++
		}
		if got != other.Drops(0, 1, 2, seq, 0) {
			diffSeed++
		}
	}
	rate := float64(drops) / n
	if math.Abs(rate-0.3) > 0.03 {
		t.Errorf("empirical drop rate %.3f, want 0.3 ±0.03", rate)
	}
	if diffSeed == 0 {
		t.Error("seed 43 replayed seed 42's loss pattern exactly")
	}
	// A fresh attempt is a fresh draw: some dropped first attempts must
	// succeed on retry, or retries could never make progress.
	recovered := false
	for seq := int64(0); seq < n && !recovered; seq++ {
		recovered = a.Drops(0, 1, 2, seq, 0) && !a.Drops(0, 1, 2, seq, 1)
	}
	if !recovered {
		t.Error("no dropped delivery ever succeeded on its second attempt")
	}
}

func TestValidateRejectsMalformedEvents(t *testing.T) {
	cases := []struct {
		name string
		ev   Event
		want string
	}{
		{"negative-from", Event{Kind: Straggler, FromBatch: -1, Factor: 2}, "negative FromBatch"},
		{"empty-window", Event{Kind: Straggler, FromBatch: 3, ToBatch: 3, Factor: 2}, "empty window"},
		{"link-self", Event{Kind: LinkDegrade, Src: 1, Dst: 1, Factor: 0.5}, "self link"},
		{"link-negative-gpu", Event{Kind: LinkDegrade, Src: -1, Dst: 0, Factor: 0.5}, "negative GPU pair"},
		{"link-zero-factor", Event{Kind: LinkDegrade, Src: 0, Dst: 1, Factor: 0}, "outside (0, 1]"},
		{"link-factor-above-one", Event{Kind: LinkDegrade, Src: 0, Dst: 1, Factor: 1.5}, "outside (0, 1]"},
		{"nic-negative-node", Event{Kind: NICDegrade, Node: -1, Factor: 0.5}, "negative node"},
		{"nic-bad-factor", Event{Kind: NICDegrade, Node: 0, Factor: 2}, "outside (0, 1]"},
		{"straggler-negative-gpu", Event{Kind: Straggler, GPU: -1, Factor: 2}, "negative GPU"},
		{"straggler-speedup", Event{Kind: Straggler, GPU: 0, Factor: 0.5}, "below 1"},
		{"drop-prob-one", Event{Kind: ProxyDrop, DropProb: 1}, "outside [0, 1)"},
		{"drop-prob-negative", Event{Kind: ProxyDrop, DropProb: -0.1}, "outside [0, 1)"},
		{"unknown-kind", Event{Kind: Kind(99), Factor: 1}, "unknown kind"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := &Schedule{Events: []Event{c.ev}}
			err := s.Validate()
			if err == nil {
				t.Fatalf("event %+v accepted", c.ev)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
	ok := &Schedule{Events: []Event{
		{Kind: LinkDegrade, Src: 0, Dst: 1, Factor: 0.5, FromBatch: 1, ToBatch: 4},
		{Kind: NICDegrade, Node: 0, Rail: -1, Factor: OutageFactor},
		{Kind: Straggler, GPU: 2, Factor: 1},
		{Kind: ProxyDrop, Src: -1, Node: -1, DropProb: 0},
	}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("well-formed schedule rejected: %v", err)
	}
}

func TestProfiles(t *testing.T) {
	names := Profiles()
	want := []string{"degraded-nic", "flaky-link", "lossy-proxy", "mixed", "none", "straggler"}
	if len(names) != len(want) {
		t.Fatalf("profiles = %v, want %v", names, want)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("profiles = %v, want %v (sorted)", names, want)
		}
	}
	for _, n := range names {
		s, err := Profile(n, 7)
		if err != nil {
			t.Fatalf("Profile(%q): %v", n, err)
		}
		if s.Seed != 7 {
			t.Errorf("profile %q dropped the seed", n)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("profile %q invalid: %v", n, err)
		}
	}
	if s, _ := Profile("none", 1); !s.Empty() {
		t.Error("profile none is not the empty schedule")
	}
	if s, _ := Profile("lossy-proxy", 1); !s.HasProxyDrops() {
		t.Error("lossy-proxy has no proxy drops")
	}
	if s, _ := Profile("flaky-link", 1); s.HasProxyDrops() {
		t.Error("flaky-link claims proxy drops")
	}
	_, err := Profile("nope", 1)
	if err == nil {
		t.Fatal("unknown profile accepted")
	}
	for _, n := range names {
		if !strings.Contains(err.Error(), n) {
			t.Errorf("unknown-profile error %q does not list %q", err, n)
		}
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		LinkDegrade: "link-degrade",
		NICDegrade:  "nic-degrade",
		Straggler:   "straggler",
		ProxyDrop:   "proxy-drop",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), s)
		}
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Errorf("unknown kind string %q does not carry the value", Kind(99).String())
	}
}
