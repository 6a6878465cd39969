package experiments

import (
	"fmt"
	"strings"

	"pgasemb/internal/retrieval"
	"pgasemb/internal/serve"
	"pgasemb/internal/sim"
)

// The manifest is the committed evaluation: one entry per group of files
// under results/, run with the options those files were committed with.
// cmd/report runs every entry, or the ones its -only flag names, and
// results/README.md's table is held to the entries' stems.

// Output is one rendered file group of an entry: a table, written as the
// aligned <stem>.txt and the <stem>.csv, or, when Table is nil, a text
// written as <stem>.txt alone.
type Output struct {
	Stem  string
	Table *Table
	Text  string
}

// Entry is one committed artifact group: the sweep that renders it,
// declared with the options it was committed with.
type Entry struct {
	// Name selects the entry on cmd/report's -only flag.
	Name string
	// Stems are the files the entry writes under results/, without their
	// extensions, in the order its sweep renders them.
	Stems []string
	// build declares the entry's points under the overrides, with the
	// assembler that renders their outcomes, one file per stem.
	build func(o Overrides) (sweep[[]Output], error)
}

// rendered maps a sweep's result to its files.
func rendered[T any](s sweep[T], files func(T) []Output) sweep[[]Output] {
	return sweep[[]Output]{s.points, func(outs []outcome) []Output { return files(s.result(outs)) }}
}

func tables(ts ...*Table) []Output {
	outs := make([]Output, len(ts))
	for i, t := range ts {
		outs[i].Table = t
	}
	return outs
}

// multiNodeText renders both kinds of a multi-node sweep at one batch size
// as one text: each kind's scaling table, then its inter-node communication
// table.
func multiNodeText(o Overrides, batchSize int) sweep[Output] {
	var pts []point
	var kinds []func([]outcome) *MultiNodeResult
	for _, kind := range []ScalingKind{WeakScaling, StrongScaling} {
		kinds = append(kinds, join(&pts, multiNodeSweep(kind, 4, 4, o.Batches, batchSize, retrieval.FP32, o.accelerated())))
	}
	return sweep[Output]{pts, func(outs []outcome) Output {
		var b strings.Builder
		for _, kind := range kinds {
			res := kind(outs)
			b.WriteString(res.ScalingTable().Render() + "\n")
			b.WriteString(res.CommTable().Render() + "\n")
		}
		return Output{Text: b.String()}
	}}
}

var manifest = []Entry{
	{
		Name: "scaling",
		Stems: []string{
			"table1_weak_speedups", "fig5_weak_factors", "fig6_weak_breakdown",
			"table2_strong_speedups", "fig8_strong_factors", "fig9_strong_breakdown",
			"scorecard",
		},
		build: func(o Overrides) (sweep[[]Output], error) {
			var pts []point
			weak := join(&pts, scalingSweep(WeakScaling, 4, o.Batches, o.accelerated()))
			strong := join(&pts, scalingSweep(StrongScaling, 4, o.Batches, o.accelerated()))
			return sweep[[]Output]{pts, func(outs []outcome) []Output {
				w, s := weak(outs), strong(outs)
				return tables(w.SpeedupTable(), w.FactorTable(), w.BreakdownTable(),
					s.SpeedupTable(), s.FactorTable(), s.BreakdownTable(), Scorecard(w, s))
			}}, nil
		},
	},
	{
		Name: "commvolume",
		Stems: []string{
			"fig7_comm_volume_2gpu", "fig7_comm_volume_2gpu_chart",
			"fig10_comm_volume_4gpu", "fig10_comm_volume_4gpu_chart",
		},
		build: func(o Overrides) (sweep[[]Output], error) {
			batches := orDefault(o.Batches, 3)
			var pts []point
			fig7 := join(&pts, commVolumeSweep(WeakScaling, 2, 120, batches, o.accelerated()))
			fig10 := join(&pts, commVolumeSweep(StrongScaling, 4, 120, batches, o.accelerated()))
			return sweep[[]Output]{pts, func(outs []outcome) []Output {
				f7, f10 := fig7(outs), fig10(outs)
				return []Output{
					{Table: f7.CSVTable()}, {Text: f7.CommVolumeCharts(10)},
					{Table: f10.CSVTable()}, {Text: f10.CommVolumeCharts(10)},
				}
			}}, nil
		},
	},
	{
		Name:  "ablations",
		Stems: []string{"ablations"},
		build: func(o Overrides) (sweep[[]Output], error) {
			return rendered(ablationSweep(4, o.Batches), func(ab []AblationResult) []Output {
				return tables(AblationTable(ab))
			}), nil
		},
	},
	{
		Name:  "pipeline-depth",
		Stems: []string{"pipeline_depth"},
		build: func(o Overrides) (sweep[[]Output], error) {
			return rendered(pipelineDepthSweep(4, []int{1, 2}, o.Batches, o.accelerated()), func(pd []PipelineDepthPoint) []Output {
				return tables(PipelineDepthTable(pd))
			}), nil
		},
	},
	{
		Name:  "stats",
		Stems: []string{"stats_weak", "stats_strong"},
		build: func(o Overrides) (sweep[[]Output], error) {
			seeds := orDefault(o.Seeds, 3)
			var pts []point
			weak := join(&pts, statsSweep(WeakScaling, 4, seeds, o.Batches, o.accelerated()))
			strong := join(&pts, statsSweep(StrongScaling, 4, seeds, o.Batches, o.accelerated()))
			return sweep[[]Output]{pts, func(outs []outcome) []Output {
				return tables(StatsTable(WeakScaling, weak(outs)), StatsTable(StrongScaling, strong(outs)))
			}}, nil
		},
	},
	{
		Name:  "precision",
		Stems: []string{"precision"},
		build: func(o Overrides) (sweep[[]Output], error) {
			return rendered(precisionSweep(2, 2, o.Batches, o.grid()), func(r *PrecisionResult) []Output {
				return tables(r.SweepTable())
			}), nil
		},
	},
	{
		Name:  "multinode",
		Stems: []string{"multinode", "multinode_b4096"},
		build: func(o Overrides) (sweep[[]Output], error) {
			var pts []point
			full := join(&pts, multiNodeText(o, 0))
			small := join(&pts, multiNodeText(o, 4096))
			return sweep[[]Output]{pts, func(outs []outcome) []Output {
				return []Output{full(outs), small(outs)}
			}}, nil
		},
	},
	{
		Name:  "placement",
		Stems: []string{"placement"},
		build: func(o Overrides) (sweep[[]Output], error) {
			s, err := placementSweep(PlacementPolicies, []float64{1.05, 1.2}, 8,
				placementBase(4, orDefault(o.Batches, 48)), retrieval.ClusterHardware(1), o.grid())
			return rendered(s, func(r *PlacementResult) []Output { return tables(r.Table()) }), err
		},
	},
	{
		Name:  "chaos",
		Stems: []string{"chaos"},
		build: func(o Overrides) (sweep[[]Output], error) {
			s, err := chaosSweep([]string{"none", "flaky-link", "straggler"}, []int{1, 2},
				retrieval.ServingScaleConfig(4), retrieval.ClusterHardware(1),
				serve.Config{Rate: 4000, Duration: sim.Second}, o.grid())
			return rendered(s, func(r *ChaosResult) []Output { return tables(r.Table()) }), err
		},
	},
	ServingOptions{
		Rates:          []float64{8000},
		CacheFractions: []float64{0, 0.0001, 0.01},
		Dedups:         []bool{false, true},
		GPUs:           4,
		Duration:       500 * sim.Millisecond,
		PipelineDepth:  1,
	}.Entry(),
}

// Manifest returns the committed evaluation's entries, or, when only is
// non-empty, the entries it names. Entries come in manifest order either
// way; a repeated name is an error, and so is an unknown one, listing the
// known ones.
func Manifest(only ...string) ([]Entry, error) {
	if len(only) == 0 {
		return append([]Entry(nil), manifest...), nil
	}
	want := map[string]bool{}
	for _, name := range only {
		if want[name] {
			return nil, fmt.Errorf("experiments: manifest entry %q named twice", name)
		}
		want[name] = true
	}
	var entries []Entry
	var names []string
	for _, e := range manifest {
		names = append(names, e.Name)
		if want[e.Name] {
			entries = append(entries, e)
			delete(want, e.Name)
		}
	}
	for _, name := range only {
		if want[name] {
			return nil, fmt.Errorf("experiments: unknown manifest entry %q (known: %s)", name, strings.Join(names, ", "))
		}
	}
	return entries, nil
}
