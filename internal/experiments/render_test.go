package experiments

import (
	"strings"
	"testing"

	"pgasemb/internal/retrieval"
	"pgasemb/internal/trace"
)

func TestTableRenderAndCSV(t *testing.T) {
	tb := &Table{
		Title:   "demo",
		Headers: []string{"a", "long-header"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
	}
	out := tb.Render()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "long-header") {
		t.Fatalf("render missing parts:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, two rows
		t.Fatalf("render has %d lines:\n%s", len(lines), out)
	}
	csv := tb.CSV()
	if csv != "a,long-header\n1,2\n333,4\n" {
		t.Fatalf("csv = %q", csv)
	}
}

func TestSpeedupTableContents(t *testing.T) {
	r := weak(t)
	tb := r.SpeedupTable()
	if !strings.Contains(tb.Title, "Table 1") {
		t.Fatalf("title = %q", tb.Title)
	}
	// Rows for 2, 3, 4 GPUs plus geomean.
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	if tb.Rows[0][0] != "2" || tb.Rows[3][0] != "geomean" {
		t.Fatalf("row structure wrong: %v", tb.Rows)
	}
	if !strings.Contains(tb.Rows[0][4], "2.10x") {
		t.Fatalf("paper reference column missing: %v", tb.Rows[0])
	}
	strongTb := strong(t).SpeedupTable()
	if !strings.Contains(strongTb.Title, "Table 2") {
		t.Fatalf("strong title = %q", strongTb.Title)
	}
}

func TestFactorTableContents(t *testing.T) {
	tb := weak(t).FactorTable()
	if !strings.Contains(tb.Title, "Figure 5") {
		t.Fatalf("title = %q", tb.Title)
	}
	if len(tb.Rows) != 4 || tb.Rows[0][1] != "1.000" {
		t.Fatalf("rows wrong: %v", tb.Rows)
	}
	stb := strong(t).FactorTable()
	if !strings.Contains(stb.Title, "Figure 8") {
		t.Fatalf("strong title = %q", stb.Title)
	}
	if stb.Rows[3][3] != "4.0" {
		t.Fatalf("strong ideal column wrong: %v", stb.Rows[3])
	}
}

func TestBreakdownTableContents(t *testing.T) {
	tb := weak(t).BreakdownTable()
	if !strings.Contains(tb.Title, "Figure 6") {
		t.Fatalf("title = %q", tb.Title)
	}
	if len(tb.Rows) != 4 || len(tb.Headers) != 6 {
		t.Fatalf("geometry wrong: %d rows, %d cols", len(tb.Rows), len(tb.Headers))
	}
}

func TestBarChart(t *testing.T) {
	out := BarChart("title", []string{"x", "yy"}, []float64{0.5, 1.0}, 10)
	if !strings.Contains(out, "##########") {
		t.Fatalf("max bar not full width:\n%s", out)
	}
	if !strings.Contains(out, "#####") {
		t.Fatalf("half bar missing:\n%s", out)
	}
	defer func() {
		if recover() == nil {
			t.Error("mismatched labels did not panic")
		}
	}()
	BarChart("t", []string{"a"}, []float64{1, 2}, 10)
}

func TestTimeSeriesChart(t *testing.T) {
	pts := []trace.Point{{T: 0.1, V: 0}, {T: 0.2, V: 5}, {T: 0.3, V: 10}}
	out := TimeSeriesChart("series", pts, 4)
	if !strings.Contains(out, "█") {
		t.Fatalf("no bars rendered:\n%s", out)
	}
	empty := TimeSeriesChart("none", []trace.Point{{T: 1, V: 0}}, 4)
	if !strings.Contains(empty, "no communication") {
		t.Fatalf("empty series not handled:\n%s", empty)
	}
}

func TestCommVolumeRendering(t *testing.T) {
	cv := runSweep(t, commVolumeSweep(WeakScaling, 2, 40, 1, &retrieval.PGASFused{}))
	charts := cv.CommVolumeCharts(6)
	if !strings.Contains(charts, "Figure 7") || !strings.Contains(charts, "PGAS fused") {
		t.Fatalf("charts missing parts:\n%s", charts)
	}
	csv := cv.CSVTable()
	if len(csv.Rows) != 40 {
		t.Fatalf("csv rows = %d", len(csv.Rows))
	}
}

func TestScalingKindHelpers(t *testing.T) {
	if WeakScaling.String() != "weak" || StrongScaling.String() != "strong" {
		t.Fatal("kind names wrong")
	}
	if WeakScaling.Config(2).TotalTables != 128 {
		t.Fatal("weak config wrong")
	}
	if StrongScaling.Config(2).TotalTables != 96 {
		t.Fatal("strong config wrong")
	}
}

func TestPointLookupPanics(t *testing.T) {
	r := weak(t)
	defer func() {
		if recover() == nil {
			t.Error("missing point did not panic")
		}
	}()
	r.Point(99)
}

func TestAblationsOrdering(t *testing.T) {
	res := runSweep(t, ablationSweep(4, 3))
	if len(res) != 5 {
		t.Fatalf("ablation suite has %d entries", len(res))
	}
	byName := map[string]float64{}
	for _, r := range res {
		byName[r.Name] = r.TotalTime
	}
	base := byName["baseline"]
	pgas := byName["pgas-fused"]
	a1 := byName["baseline-direct-placement"]
	a2 := byName["pgas-overlap-only"]
	if !(pgas < a1 && a1 < base) {
		t.Errorf("A1 out of order: pgas=%v a1=%v base=%v", pgas, a1, base)
	}
	if !(pgas < a2 && a2 < base) {
		t.Errorf("A2 out of order: pgas=%v a2=%v base=%v", pgas, a2, base)
	}
	tb := AblationTable(res)
	if len(tb.Rows) != 5 || tb.Rows[0][2] != "1.00x" {
		t.Fatalf("ablation table wrong: %v", tb.Rows)
	}
	// Empty input degenerates gracefully.
	if empty := AblationTable(nil); len(empty.Rows) != 0 {
		t.Fatal("empty ablation table has rows")
	}
}

func TestScalingStats(t *testing.T) {
	stats := runSweep(t, statsSweep(WeakScaling, 2, 3, 2, &retrieval.PGASFused{}))
	if len(stats) != 1 {
		t.Fatalf("stats entries = %d", len(stats))
	}
	s := stats[0]
	if s.GPUs != 2 || s.Seeds != 3 {
		t.Fatalf("stats meta wrong: %+v", s)
	}
	if s.Min > s.Mean || s.Mean > s.Max {
		t.Fatalf("stats ordering wrong: %+v", s)
	}
	if s.Mean < 1.5 || s.Mean > 2.8 {
		t.Fatalf("mean speedup %v outside sane band", s.Mean)
	}
	// Pooling noise at batch 16384 is tiny: spread under 2%.
	if s.StdDev > 0.02*s.Mean {
		t.Fatalf("speedup stddev %v suspiciously large", s.StdDev)
	}
	tb := StatsTable(WeakScaling, stats)
	if len(tb.Rows) != 1 || !strings.Contains(tb.Title, "weak") {
		t.Fatalf("stats table wrong: %+v", tb)
	}
}

// The statistics compare the baseline with the accelerated column the
// sweep is given: with the baseline in both columns every speedup is 1.
func TestScalingStatsHonoursBackend(t *testing.T) {
	stats := runSweep(t, statsSweep(WeakScaling, 3, 2, 2, &retrieval.Baseline{}))
	for _, s := range stats {
		if s.Mean != 1 || s.StdDev != 0 || s.Min != 1 || s.Max != 1 {
			t.Errorf("%d GPUs: baseline over baseline gave %+v, want exactly 1", s.GPUs, s)
		}
	}
}

func TestScorecard(t *testing.T) {
	w, s := weak(t), strong(t)
	tb := Scorecard(w, s)
	if len(tb.Rows) != 10 {
		t.Fatalf("scorecard rows = %d", len(tb.Rows))
	}
	if tb.Rows[0][1] != "2.10" {
		t.Fatalf("paper column wrong: %v", tb.Rows[0])
	}
	// The calibration keeps every headline metric within 30% of the paper.
	if worst := ScorecardWorstError(w, s); worst > 0.30 {
		t.Fatalf("worst scorecard error %.1f%% exceeds 30%%", worst*100)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("swapped kinds not rejected")
			}
		}()
		Scorecard(s, w)
	}()
}
