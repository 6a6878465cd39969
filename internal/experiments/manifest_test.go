package experiments

import (
	"context"
	"testing"

	"pgasemb/internal/retrieval"
)

// The manifest's names and stems are unique, -only picks entries in
// manifest order, and a bad selection is refused by name.
func TestManifestSelection(t *testing.T) {
	all, err := Manifest()
	if err != nil {
		t.Fatal(err)
	}
	names, stems := map[string]bool{}, map[string]bool{}
	for _, e := range all {
		if names[e.Name] {
			t.Errorf("two entries named %s", e.Name)
		}
		names[e.Name] = true
		for _, s := range e.Stems {
			if stems[s] {
				t.Errorf("two entries write %s", s)
			}
			stems[s] = true
		}
	}
	some, err := Manifest("serving", "scaling")
	if err != nil {
		t.Fatal(err)
	}
	if len(some) != 2 || some[0].Name != "scaling" || some[1].Name != "serving" {
		t.Errorf("Manifest(serving, scaling) = %v, want scaling then serving", some)
	}
	for _, only := range [][]string{{"fig5"}, {"chaos", "chaos"}} {
		if _, err := Manifest(only...); err == nil {
			t.Errorf("Manifest(%v) accepted", only)
		}
	}
}

// The accelerated backend of the overrides joins the baseline in a grid
// entry.
func TestManifestBackendOverride(t *testing.T) {
	entries, err := Manifest("chaos")
	if err != nil {
		t.Fatal(err)
	}
	overlap, err := retrieval.NewBackendByName("pgas-overlap-only")
	if err != nil {
		t.Fatal(err)
	}
	files, err := Run(context.Background(), entries, Overrides{Backends: []retrieval.Backend{overlap}})
	if err != nil {
		t.Fatal(err)
	}
	backends := map[string]bool{}
	for _, row := range files[0][0].Table.Rows {
		backends[row[0]] = true
	}
	if len(backends) != 2 || !backends["baseline"] || !backends["pgas-overlap-only"] {
		t.Errorf("chaos entry under pgas-overlap-only ran backends %v", backends)
	}
}
