package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pgasemb"
)

// testdata/bench.txt is go test -bench -count 3 output over four packages:
// cache and retrieval with -benchmem (sub-benchmarks, GOMAXPROCS suffix -2),
// pgas without it, and a serve benchmark that failed.
func parseFixture(t *testing.T) ([]row, error) {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "bench.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	return parse(f)
}

func TestParseFixtureRows(t *testing.T) {
	rows, _ := parseFixture(t)
	want := []row{
		{Name: "cache/TouchAdmit/slots=1263225", Iterations: 49248974, NsPerOp: 7.319},
		{Name: "cache/TouchAdmit/slots=4096", Iterations: 13318179, NsPerOp: 32.46},
		{Name: "retrieval/RoutePlanCompile/dedup-cache", Iterations: 333, NsPerOp: 1250123, BytesPerOp: 145217, AllocsPerOp: 33},
		{Name: "retrieval/NextBatchData/shape=infer-weak4", Iterations: 26, NsPerOp: 15748705, BytesPerOp: 532752, AllocsPerOp: 4},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("parsed rows\n%+v\nwant\n%+v", rows, want)
	}
}

func TestParseFixtureErrors(t *testing.T) {
	_, err := parseFixture(t)
	if err == nil {
		t.Fatal("a FAIL line and rows without -benchmem columns parsed without error")
	}
	for _, want := range []string{
		"--- FAIL: BenchmarkServingRunDedup",
		"FAIL\tpgasemb/internal/serve",
		"pgas/PutVectors: want ns/op, B/op and allocs/op columns",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error does not mention %q:\n%v", want, err)
		}
	}
}

func TestParseFolding(t *testing.T) {
	out := `pkg: pgasemb/internal/sim
BenchmarkEventScheduleAndRun 	 10	 400 ns/op	 1000 events/iter	 64 B/op	 2 allocs/op
BenchmarkEventScheduleAndRun 	 20	 100 ns/op	 1000 events/iter	 96 B/op	 3 allocs/op
BenchmarkEventScheduleAndRun 	 30	 200 ns/op	 1000 events/iter	 32 B/op	 1 allocs/op
BenchmarkEventScheduleAndRun 	 40	 900 ns/op	 1000 events/iter	 32 B/op	 1 allocs/op
`
	rows, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	// GOMAXPROCS=1 prints no suffix; an even run count takes the mean of the
	// middle two; B/op and allocs/op take the largest run.
	want := []row{{Name: "sim/EventScheduleAndRun", Iterations: 100, NsPerOp: 300, BytesPerOp: 96, AllocsPerOp: 3}}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("parsed %+v, want %+v", rows, want)
	}
	if _, err := parse(strings.NewReader("PASS\nok  \tpgasemb/internal/sim\t0.1s\n")); err == nil {
		t.Error("output without benchmark rows parsed without error")
	}
}

func TestDiffRules(t *testing.T) {
	old := []row{
		{Name: "retrieval/PGASFusedBatch", NsPerOp: 1000},
		{Name: "retrieval/RoutePlanCompile/plain", NsPerOp: 1000, AllocsPerOp: 3},
	}
	for _, c := range []struct {
		name  string
		fresh []row
		fails int
		say   string
	}{
		{"unchanged", old, 0, "ok"},
		{"faster and fewer allocs", []row{
			{Name: "retrieval/PGASFusedBatch", NsPerOp: 500},
			{Name: "retrieval/RoutePlanCompile/plain", NsPerOp: 500, AllocsPerOp: 2},
		}, 0, "ok"},
		{"ns/op within tolerance", []row{
			{Name: "retrieval/PGASFusedBatch", NsPerOp: 1140},
			old[1],
		}, 0, "+14.0%"},
		{"ns/op past tolerance", []row{
			{Name: "retrieval/PGASFusedBatch", NsPerOp: 1160},
			old[1],
		}, 1, "FAIL: ns/op grew 16.0%"},
		{"one more alloc", []row{
			old[0],
			{Name: "retrieval/RoutePlanCompile/plain", NsPerOp: 1000, AllocsPerOp: 4},
		}, 1, "FAIL: allocs/op 3 -> 4"},
		{"missing row", old[:1], 1, "FAIL: missing from the fresh run"},
		{"new row", append([]row{{Name: "sim/PipeOffer", NsPerOp: 5}}, old...), 0, "new (not in baseline)"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			if got := diff(&out, old, c.fresh, 15); got != c.fails {
				t.Errorf("%d regressions, want %d:\n%s", got, c.fails, &out)
			}
			if !strings.Contains(out.String(), c.say) {
				t.Errorf("output does not say %q:\n%s", c.say, &out)
			}
		})
	}
}

// -write replaces the hot-path rows and keeps cmd/report's sweep records.
func TestStoreKeepsSweepRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	bench := pgasemb.NewBench()
	bench.Start("fig5", 2)()
	var buf bytes.Buffer
	if err := bench.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	rep.HotPaths = []row{{Name: "sim/PipeOffer", Iterations: 10, NsPerOp: 5}}
	if err := store(path, rep); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"gomaxprocs", "total_wall_seconds", "total_run_seconds", "experiments", "hot_paths"} {
		if _, ok := got[key]; !ok {
			t.Errorf("stored bench.json lacks %q:\n%s", key, data)
		}
	}
	if again, err := load(path); err != nil || !reflect.DeepEqual(again, rep) {
		t.Errorf("reloaded %+v (err %v), want %+v", again, err, rep)
	}
}
