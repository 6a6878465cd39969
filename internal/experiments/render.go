package experiments

import (
	"fmt"
	"strings"

	"pgasemb/internal/sim"
	"pgasemb/internal/trace"
)

// Table is a rendered experiment artifact: headers plus string rows.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// Render formats the table with aligned columns.
func (t *Table) Render() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Headers)
	total := len(widths) - 1
	for _, w := range widths {
		total += w + 1
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteString("\n")
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Headers, ","))
	b.WriteString("\n")
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteString("\n")
	}
	return b.String()
}

// SpeedupTable renders Table 1 (weak) or Table 2 (strong).
func (r *ScalingResult) SpeedupTable() *Table {
	paper := map[ScalingKind]map[int]float64{
		WeakScaling:   {2: 2.10, 3: 1.95, 4: 1.87},
		StrongScaling: {2: 2.95, 3: 2.55, 4: 2.44},
	}
	title := "Table 1: weak-scaling speedup of PGAS fused over baseline"
	if r.Kind == StrongScaling {
		title = "Table 2: strong-scaling speedup of PGAS fused over baseline"
	}
	t := &Table{
		Title:   title,
		Headers: []string{"GPUs", "Baseline", "PGAS fused", "Speedup", "Paper"},
	}
	for _, p := range r.Points {
		if p.GPUs < 2 {
			continue
		}
		paperCell := "-"
		if v, ok := paper[r.Kind][p.GPUs]; ok {
			paperCell = fmt.Sprintf("%.2fx", v)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p.GPUs),
			sim.FormatTime(p.Baseline.TotalTime),
			sim.FormatTime(p.PGAS.TotalTime),
			fmt.Sprintf("%.2fx", p.Speedup()),
			paperCell,
		})
	}
	paperGeo := 1.97
	if r.Kind == StrongScaling {
		paperGeo = 2.63
	}
	t.Rows = append(t.Rows, []string{
		"geomean", "", "", fmt.Sprintf("%.2fx", r.GeomeanSpeedup()), fmt.Sprintf("%.2fx", paperGeo),
	})
	return t
}

// FactorTable renders the scaling factors behind Figure 5 or Figure 8.
func (r *ScalingResult) FactorTable() *Table {
	title := "Figure 5: weak scaling factor (T1/TP; ideal = 1.0)"
	if r.Kind == StrongScaling {
		title = "Figure 8: strong scaling factor (T1/TP; ideal = P)"
	}
	t := &Table{Title: title, Headers: []string{"GPUs", "Baseline", "PGAS fused", "Ideal"}}
	base := r.Factors(false)
	pgas := r.Factors(true)
	for i, p := range r.Points {
		ideal := 1.0
		if r.Kind == StrongScaling {
			ideal = float64(p.GPUs)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p.GPUs),
			fmt.Sprintf("%.3f", base[i]),
			fmt.Sprintf("%.3f", pgas[i]),
			fmt.Sprintf("%.1f", ideal),
		})
	}
	return t
}

// BreakdownTable renders the component decomposition behind Figure 6 or
// Figure 9: per GPU count, the baseline's three components and the PGAS
// total.
func (r *ScalingResult) BreakdownTable() *Table {
	title := "Figure 6: weak-scaling runtime breakdown"
	if r.Kind == StrongScaling {
		title = "Figure 9: strong-scaling runtime breakdown"
	}
	t := &Table{
		Title: title,
		Headers: []string{"GPUs", "Base Computation", "Base Communication",
			"Base Sync+Unpack", "Base total", "PGAS total"},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p.GPUs),
			sim.FormatTime(p.Baseline.Breakdown.Get("Computation")),
			sim.FormatTime(p.Baseline.Breakdown.Get("Communication")),
			sim.FormatTime(p.Baseline.Breakdown.Get("Sync+Unpack")),
			sim.FormatTime(p.Baseline.TotalTime),
			sim.FormatTime(p.PGAS.TotalTime),
		})
	}
	return t
}

// BarChart renders labeled horizontal bars scaled to width columns.
func BarChart(title string, labels []string, values []float64, width int) string {
	if len(labels) != len(values) {
		panic("experiments: BarChart labels/values mismatch")
	}
	if width <= 0 {
		width = 50
	}
	var maxV float64
	maxL := 0
	for i, v := range values {
		if v > maxV {
			maxV = v
		}
		if len(labels[i]) > maxL {
			maxL = len(labels[i])
		}
	}
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	for i, v := range values {
		n := 0
		if maxV > 0 {
			n = int(v / maxV * float64(width))
		}
		fmt.Fprintf(&b, "%-*s |%s %s\n", maxL, labels[i], strings.Repeat("#", n), sim.FormatTime(v))
	}
	return b.String()
}

// TimeSeriesChart renders a rate series (Figures 7/10) as a vertical-bar
// strip: each column is one time bin, height proportional to volume.
func TimeSeriesChart(title string, pts []trace.Point, height int) string {
	if height <= 0 {
		height = 10
	}
	var maxV float64
	for _, p := range pts {
		if p.V > maxV {
			maxV = p.V
		}
	}
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	if maxV == 0 {
		b.WriteString("(no communication)\n")
		return b.String()
	}
	for row := height; row >= 1; row-- {
		threshold := float64(float64(row) / float64(height) * maxV)
		for _, p := range pts {
			if p.V >= threshold {
				b.WriteString("█")
			} else if p.V >= threshold-maxV/float64(2*height) {
				b.WriteString("▄")
			} else {
				b.WriteString(" ")
			}
		}
		b.WriteString("\n")
	}
	b.WriteString(strings.Repeat("─", len(pts)))
	b.WriteString("\n")
	if len(pts) > 0 {
		last := pts[len(pts)-1].T
		fmt.Fprintf(&b, "0 %*s\n", len(pts)-2, sim.FormatTime(last))
	}
	return b.String()
}

// CommVolumeCharts renders both implementations' volume-over-time strips.
func (cv *CommVolumeResult) CommVolumeCharts(height int) string {
	fig := "Figure 7"
	if cv.Kind == StrongScaling {
		fig = "Figure 10"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: communication volume over time (%s scaling, %d GPUs)\n\n",
		fig, cv.Kind, cv.GPUs)
	b.WriteString(TimeSeriesChart(
		fmt.Sprintf("PGAS fused (run time %s):", sim.FormatTime(cv.PGASSpan)), cv.PGAS, height))
	b.WriteString("\n")
	b.WriteString(TimeSeriesChart(
		fmt.Sprintf("Baseline (run time %s):", sim.FormatTime(cv.BaselineSpan)), cv.Baseline, height))
	return b.String()
}

// CSVTable renders a comm-volume result for plotting elsewhere.
func (cv *CommVolumeResult) CSVTable() *Table {
	t := &Table{
		Title:   fmt.Sprintf("comm volume over time (%s, %d GPUs)", cv.Kind, cv.GPUs),
		Headers: []string{"bin", "pgas_t", "pgas_bytes", "baseline_t", "baseline_bytes"},
	}
	n := len(cv.PGAS)
	if len(cv.Baseline) > n {
		n = len(cv.Baseline)
	}
	for i := 0; i < n; i++ {
		row := []string{fmt.Sprintf("%d", i), "", "", "", ""}
		if i < len(cv.PGAS) {
			row[1] = fmt.Sprintf("%.6g", cv.PGAS[i].T)
			row[2] = fmt.Sprintf("%.0f", cv.PGAS[i].V)
		}
		if i < len(cv.Baseline) {
			row[3] = fmt.Sprintf("%.6g", cv.Baseline[i].T)
			row[4] = fmt.Sprintf("%.0f", cv.Baseline[i].V)
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
