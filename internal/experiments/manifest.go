package experiments

import (
	"context"
	"fmt"
	"strings"

	"pgasemb/internal/retrieval"
	"pgasemb/internal/sim"
)

// The manifest is the committed evaluation: one entry per group of files
// under results/, run with the options those files were committed with.
// cmd/report runs every entry, or the ones its -only flag names, and
// results/README.md's table is held to the entries' stems.

// Overrides are what one run of the manifest may change across its entries.
// A zero field keeps each entry's committed value.
type Overrides struct {
	// Sweep.Backends holds at most one backend, the accelerated one
	// (empty = pgas-fused). Every entry runs it beside the baseline: as the
	// accelerated column of the baseline-vs-accelerated sweeps, and as the
	// second backend of the grid sweeps (precision, placement, chaos,
	// serving). The ablation suite runs its fixed backends regardless.
	Sweep
	// Batches replaces the batch count of every entry that counts batches:
	// all but chaos and serving, which run a simulated arrival window.
	Batches int
	// Seeds replaces the stats entry's 3 workload seeds.
	Seeds int
	// Dedup adds the index-deduplication axis to the paper's scaling
	// sweeps (the scaling and stats entries).
	Dedup bool
}

// paper is the options of the paper's sweeps at the committed 100 batches
// (the configurations' own count) unless Batches overrides it.
func (o Overrides) paper() Options {
	return Options{Sweep: o.Sweep, Batches: o.Batches, Dedup: o.Dedup}
}

// grid is the sweep of the grid entries: the baseline and the accelerated
// backend, or the sweeps' own baseline and pgas-fused when none is given.
func (o Overrides) grid() Sweep {
	s := o.Sweep
	if len(s.Backends) == 1 {
		s.Backends = []retrieval.Backend{&retrieval.Baseline{}, s.Backends[0]}
	}
	return s
}

// Output is one rendered file group of an entry: a table, written as the
// aligned <stem>.txt and the <stem>.csv, or, when Table is nil, a text
// written as <stem>.txt alone.
type Output struct {
	Stem  string
	Table *Table
	Text  string
}

// Entry is one committed artifact group: the sweep that renders it and the
// options it was committed with.
type Entry struct {
	// Name selects the entry on cmd/report's -only flag.
	Name string
	// Stems are the files the entry writes under results/, without their
	// extensions, in the order its run renders them.
	Stems []string
	run   func(ctx context.Context, o Overrides) ([]Output, error)
}

// Run runs the entry's sweep with its committed options under o and returns
// its rendered files, one per stem.
func (e Entry) Run(ctx context.Context, o Overrides) ([]Output, error) {
	if len(o.Backends) > 1 {
		return nil, fmt.Errorf("experiments: %s: Overrides.Backends holds the accelerated backend alone, got %d", e.Name, len(o.Backends))
	}
	outs, err := e.run(ctx, o)
	if err != nil {
		return nil, err
	}
	if len(outs) != len(e.Stems) {
		return nil, fmt.Errorf("experiments: %s rendered %d files for %d stems", e.Name, len(outs), len(e.Stems))
	}
	for i := range outs {
		outs[i].Stem = e.Stems[i]
	}
	return outs, nil
}

func tables(ts ...*Table) []Output {
	outs := make([]Output, len(ts))
	for i, t := range ts {
		outs[i].Table = t
	}
	return outs
}

// multiNodeText renders both kinds of a multi-node sweep as one text: each
// kind's scaling table, then its inter-node communication table.
func multiNodeText(ctx context.Context, opts MultiNodeOptions) (Output, error) {
	var b strings.Builder
	for _, kind := range []ScalingKind{WeakScaling, StrongScaling} {
		res, err := RunMultiNode(ctx, kind, opts)
		if err != nil {
			return Output{}, err
		}
		b.WriteString(res.ScalingTable().Render() + "\n")
		b.WriteString(res.CommTable().Render() + "\n")
	}
	return Output{Text: b.String()}, nil
}

var manifest = []Entry{
	{
		Name: "scaling",
		Stems: []string{
			"table1_weak_speedups", "fig5_weak_factors", "fig6_weak_breakdown",
			"table2_strong_speedups", "fig8_strong_factors", "fig9_strong_breakdown",
			"scorecard",
		},
		run: func(ctx context.Context, o Overrides) ([]Output, error) {
			weak, err := RunScaling(ctx, WeakScaling, o.paper())
			if err != nil {
				return nil, err
			}
			strong, err := RunScaling(ctx, StrongScaling, o.paper())
			if err != nil {
				return nil, err
			}
			return tables(weak.SpeedupTable(), weak.FactorTable(), weak.BreakdownTable(),
				strong.SpeedupTable(), strong.FactorTable(), strong.BreakdownTable(),
				Scorecard(weak, strong)), nil
		},
	},
	{
		Name: "commvolume",
		Stems: []string{
			"fig7_comm_volume_2gpu", "fig7_comm_volume_2gpu_chart",
			"fig10_comm_volume_4gpu", "fig10_comm_volume_4gpu_chart",
		},
		run: func(ctx context.Context, o Overrides) ([]Output, error) {
			opts := o.paper()
			opts.Batches = orDefault(o.Batches, 3)
			fig7, err := RunCommVolume(ctx, WeakScaling, 2, 120, opts)
			if err != nil {
				return nil, err
			}
			fig10, err := RunCommVolume(ctx, StrongScaling, 4, 120, opts)
			if err != nil {
				return nil, err
			}
			return []Output{
				{Table: fig7.CSVTable()}, {Text: fig7.CommVolumeCharts(10)},
				{Table: fig10.CSVTable()}, {Text: fig10.CommVolumeCharts(10)},
			}, nil
		},
	},
	{
		Name:  "ablations",
		Stems: []string{"ablations"},
		run: func(ctx context.Context, o Overrides) ([]Output, error) {
			ab, err := RunAblations(ctx, 4, o.paper())
			if err != nil {
				return nil, err
			}
			return tables(AblationTable(ab)), nil
		},
	},
	{
		Name:  "pipeline-depth",
		Stems: []string{"pipeline_depth"},
		run: func(ctx context.Context, o Overrides) ([]Output, error) {
			pd, err := RunPipelineDepth(ctx, 4, []int{1, 2}, o.paper())
			if err != nil {
				return nil, err
			}
			return tables(PipelineDepthTable(pd)), nil
		},
	},
	{
		Name:  "stats",
		Stems: []string{"stats_weak", "stats_strong"},
		run: func(ctx context.Context, o Overrides) ([]Output, error) {
			var outs []Output
			for _, kind := range []ScalingKind{WeakScaling, StrongScaling} {
				stats, err := RunScalingStats(ctx, kind, orDefault(o.Seeds, 3), o.paper())
				if err != nil {
					return nil, err
				}
				outs = append(outs, tables(StatsTable(kind, stats))...)
			}
			return outs, nil
		},
	},
	{
		Name:  "precision",
		Stems: []string{"precision"},
		run: func(ctx context.Context, o Overrides) ([]Output, error) {
			res, err := RunPrecision(ctx, PrecisionOptions{Sweep: o.grid(), Nodes: 2, GPUsPerNode: 2, Batches: o.Batches})
			if err != nil {
				return nil, err
			}
			return tables(res.SweepTable()), nil
		},
	},
	{
		Name:  "multinode",
		Stems: []string{"multinode", "multinode_b4096"},
		run: func(ctx context.Context, o Overrides) ([]Output, error) {
			opts := MultiNodeOptions{Sweep: o.Sweep, MaxNodes: 4, GPUsPerNode: 4, Batches: o.Batches}
			full, err := multiNodeText(ctx, opts)
			if err != nil {
				return nil, err
			}
			opts.BatchSize = 4096
			small, err := multiNodeText(ctx, opts)
			if err != nil {
				return nil, err
			}
			return []Output{full, small}, nil
		},
	},
	{
		Name:  "placement",
		Stems: []string{"placement"},
		run: func(ctx context.Context, o Overrides) ([]Output, error) {
			res, err := RunPlacement(ctx, PlacementOptions{
				Sweep:          o.grid(),
				Policies:       PlacementPolicies,
				ZipfExponents:  []float64{1.05, 1.2},
				GPUs:           4,
				Batches:        orDefault(o.Batches, 48),
				RebalanceEvery: 8,
				HotTables:      2,
			})
			if err != nil {
				return nil, err
			}
			return tables(res.Table()), nil
		},
	},
	{
		Name:  "chaos",
		Stems: []string{"chaos"},
		run: func(ctx context.Context, o Overrides) ([]Output, error) {
			res, err := RunChaos(ctx, ChaosOptions{
				Sweep:    o.grid(),
				Profiles: []string{"none", "flaky-link", "straggler"},
				Replicas: []int{1, 2},
				GPUs:     4,
				Rate:     4000,
				Duration: sim.Second,
			})
			if err != nil {
				return nil, err
			}
			return tables(res.Table()), nil
		},
	},
	{
		Name:  "serving",
		Stems: []string{"serving"},
		run: func(ctx context.Context, o Overrides) ([]Output, error) {
			res, err := RunServing(ctx, ServingOptions{
				Sweep:          o.grid(),
				Rates:          []float64{8000},
				CacheFractions: []float64{0, 0.0001, 0.01},
				Dedups:         []bool{false, true},
				GPUs:           4,
				Duration:       500 * sim.Millisecond,
				PipelineDepth:  1,
			})
			if err != nil {
				return nil, err
			}
			return tables(res.Table()), nil
		},
	},
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
