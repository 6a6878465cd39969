package retrieval

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"pgasemb/internal/workload"
)

// fingerprint flattens everything a run reports — total time, the ordered
// component breakdown, the binned communication-volume series, and (in
// functional mode) the final output tensors — into one comparable string.
// Two runs of the same (spec, seed) must fingerprint identically.
func fingerprint(r *Result) string {
	out := fmt.Sprintf("total=%v\n", r.TotalTime)
	for _, c := range r.Breakdown.Components() {
		out += fmt.Sprintf("comp %s=%v\n", c.Name, c.Duration)
	}
	for g, bk := range r.PerGPU {
		for _, c := range bk.Components() {
			out += fmt.Sprintf("gpu%d %s=%v\n", g, c.Name, c.Duration)
		}
	}
	out += fmt.Sprintf("commtotal=%v\n", r.CommTrace.Total())
	for _, p := range r.CommTrace.RateSeries(0, r.TotalTime, 32) {
		out += fmt.Sprintf("bin %v=%v\n", p.T, p.V)
	}
	for g, fin := range r.Final {
		if fin == nil {
			continue
		}
		data := fin.Data()
		out += fmt.Sprintf("final%d n=%d first=%v last=%v\n", g, len(data), data[0], data[len(data)-1])
		var sum float64
		for _, v := range data {
			sum += float64(v)
		}
		out += fmt.Sprintf("final%d sum=%v\n", g, sum)
	}
	return out
}

// concurrencyCases returns (config, backend) pairs covering the functional
// data plane, the timing-only plane, and both communication schemes.
func concurrencyCases() []struct {
	name    string
	cfg     Config
	backend func() Backend
} {
	timing := WeakScalingConfig(3)
	timing.Batches = 3
	return []struct {
		name    string
		cfg     Config
		backend func() Backend
	}{
		{"functional-baseline", TestScaleConfig(3), func() Backend { return &Baseline{} }},
		{"functional-pgas", TestScaleConfig(3), func() Backend { return &PGASFused{} }},
		{"timing-pgas", timing, func() Backend { return &PGASFused{} }},
	}
}

// TestConcurrentRunsBitIdentical executes the same spec many times in
// parallel from host goroutines and asserts every run's results are
// bit-identical to a serial run's. Under `go test -race` this doubles as
// the regression test for shared mutable state between runs: any state a
// run touches that is not its own would be flagged as a data race.
func TestConcurrentRunsBitIdentical(t *testing.T) {
	const runs = 8
	for _, tc := range concurrencyCases() {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := NewSystemSpec(tc.cfg, DefaultHardware())
			if err != nil {
				t.Fatal(err)
			}
			serial, err := spec.NewRun()
			if err != nil {
				t.Fatal(err)
			}
			res, err := serial.Run(tc.backend())
			if err != nil {
				t.Fatal(err)
			}
			want := fingerprint(res)

			got := make([]string, runs)
			errs := make([]error, runs)
			var wg sync.WaitGroup
			for i := 0; i < runs; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					sys, err := spec.NewRun()
					if err != nil {
						errs[i] = err
						return
					}
					r, err := sys.Run(tc.backend())
					if err != nil {
						errs[i] = err
						return
					}
					got[i] = fingerprint(r)
				}(i)
			}
			wg.Wait()
			for i := 0; i < runs; i++ {
				if errs[i] != nil {
					t.Fatalf("concurrent run %d: %v", i, errs[i])
				}
				if got[i] != want {
					t.Errorf("concurrent run %d diverges from serial run:\n--- serial\n%s\n--- run %d\n%s",
						i, want, i, got[i])
				}
			}
		})
	}
}

// TestConcurrentSeedsIndependent runs distinct seeds of one spec in
// parallel and asserts each matches its own serial rerun — seeds must
// neither share RNG state nor disturb each other.
func TestConcurrentSeedsIndependent(t *testing.T) {
	spec, err := NewSystemSpec(TestScaleConfig(2), DefaultHardware())
	if err != nil {
		t.Fatal(err)
	}
	const seeds = 4
	base := spec.Config().Seed
	run := func(seed uint64) (string, error) {
		sys, err := spec.NewRunWithSeed(seed)
		if err != nil {
			return "", err
		}
		r, err := sys.Run(&PGASFused{})
		if err != nil {
			return "", err
		}
		return fingerprint(r), nil
	}
	want := make([]string, seeds)
	for s := 0; s < seeds; s++ {
		fp, err := run(base + uint64(s)*1_000_003)
		if err != nil {
			t.Fatal(err)
		}
		want[s] = fp
	}
	for s := 1; s < seeds; s++ {
		if want[s] == want[0] {
			t.Fatalf("seed %d produced the same results as seed 0; seeds must differ", s)
		}
	}
	got := make([]string, seeds)
	errs := make([]error, seeds)
	var wg sync.WaitGroup
	for s := 0; s < seeds; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			got[s], errs[s] = run(base + uint64(s)*1_000_003)
		}(s)
	}
	wg.Wait()
	for s := 0; s < seeds; s++ {
		if errs[s] != nil {
			t.Fatal(errs[s])
		}
		if got[s] != want[s] {
			t.Errorf("seed %d: concurrent result differs from serial result", s)
		}
	}
}

// TestZipfTableSharedAcrossConcurrentRuns starts the first runs of a Zipf
// spec from several goroutines at once, so they race to build the spec's
// shared rank table, and checks each against a run of a fresh spec.
func TestZipfTableSharedAcrossConcurrentRuns(t *testing.T) {
	cfg := TestScaleConfig(3)
	cfg.Distribution = workload.Zipf
	cfg.ZipfExponent = 1.2
	cfg.Dedup = true
	run := func(spec *SystemSpec, seed uint64) (string, error) {
		sys, err := spec.NewRunWithSeed(seed)
		if err != nil {
			return "", err
		}
		r, err := sys.Run(&PGASFused{})
		if err != nil {
			return "", err
		}
		return fingerprint(r), nil
	}
	shared, err := NewSystemSpec(cfg, DefaultHardware())
	if err != nil {
		t.Fatal(err)
	}
	const seeds = 4
	got := make([]string, seeds)
	errs := make([]error, seeds)
	var wg sync.WaitGroup
	for s := 0; s < seeds; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			got[s], errs[s] = run(shared, uint64(s))
		}(s)
	}
	wg.Wait()
	for s := 0; s < seeds; s++ {
		if errs[s] != nil {
			t.Fatal(errs[s])
		}
		fresh, err := NewSystemSpec(cfg, DefaultHardware())
		if err != nil {
			t.Fatal(err)
		}
		want, err := run(fresh, uint64(s))
		if err != nil {
			t.Fatal(err)
		}
		if got[s] != want {
			t.Errorf("seed %d: run on the shared-table spec differs from a fresh spec's run", s)
		}
	}
}

// A spec derived by WithBatchSize shares its parent's Zipf rank table, which
// stays unbuilt until the first run of either, and runs exactly like a spec
// built fresh at that batch size. It is validated like one too.
func TestWithBatchSizeSharesZipfTable(t *testing.T) {
	cfg := TestScaleConfig(2)
	cfg.Distribution = workload.Zipf
	cfg.ZipfExponent = 1.05
	top, err := NewSystemSpec(cfg, DefaultHardware())
	if err != nil {
		t.Fatal(err)
	}
	half, err := top.WithBatchSize(cfg.BatchSize / 2)
	if err != nil {
		t.Fatal(err)
	}
	if half.zipf != top.zipf || top.zipf.cdf != nil {
		t.Fatal("derived spec does not share an unbuilt rank table with its parent")
	}
	sys, err := half.NewRun()
	if err != nil {
		t.Fatal(err)
	}
	if top.zipf.cdf == nil {
		t.Fatal("the derived spec's first run did not build the shared table")
	}
	got, err := sys.Run(&PGASFused{})
	if err != nil {
		t.Fatal(err)
	}
	fresh := cfg
	fresh.BatchSize = cfg.BatchSize / 2
	freshSpec, err := NewSystemSpec(fresh, DefaultHardware())
	if err != nil {
		t.Fatal(err)
	}
	freshSys, err := freshSpec.NewRun()
	if err != nil {
		t.Fatal(err)
	}
	want, err := freshSys.Run(&PGASFused{})
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(got) != fingerprint(want) {
		t.Fatal("run of the derived spec differs from a fresh spec's run at the same batch size")
	}
	if _, err := top.WithBatchSize(0); err == nil {
		t.Fatal("WithBatchSize(0) accepted")
	}
}

func TestRunContextCancelled(t *testing.T) {
	spec, err := NewSystemSpec(TestScaleConfig(2), DefaultHardware())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := spec.NewRun()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.RunContext(ctx, &PGASFused{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
}
