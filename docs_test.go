package pgasemb

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"pgasemb/internal/experiments"
	"pgasemb/internal/retrieval"
)

// docRef matches a command or example path inside a doc span: cmd/report,
// ./cmd/serve, examples/quickstart.
var docRef = regexp.MustCompile(`(?:^|[^A-Za-z0-9_/])(?:\./)?(cmd|examples)/([A-Za-z0-9_-]+)`)

// docPath matches a repository path under internal/ inside a doc span.
var docPath = regexp.MustCompile(`(?:^|[^A-Za-z0-9_./])(internal/[A-Za-z0-9_./-]*[A-Za-z0-9_])`)

// docAPI matches an exported identifier of a package the programs import
// inside a doc span: experiments.Manifest, retrieval.Config.
var docAPI = regexp.MustCompile(`(?:^|[^A-Za-z0-9_./])(retrieval|experiments|serve|dlrm)\.([A-Z][A-Za-z0-9_]*)`)

// docFlag matches a command-line flag token: -batches, -out=results.
var docFlag = regexp.MustCompile(`^--?([A-Za-z][A-Za-z0-9-]*)(?:=.*)?$`)

// docSpans returns the text a reader would copy out of a markdown doc: the
// backticked spans of its prose and the `go run` lines of its fenced blocks.
func docSpans(doc string) []string {
	var spans []string
	fenced := false
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			if strings.Contains(line, "go run") {
				spans = append(spans, line)
			}
			continue
		}
		parts := strings.Split(line, "`")
		for i := 1; i < len(parts)-1; i += 2 {
			spans = append(spans, parts[i])
		}
	}
	return spans
}

// commandFlags parses cmd/<name>/main.go and returns the flags it defines
// with flag.Int, String, Bool, Duration, Float64 or Uint64.
func commandFlags(t *testing.T, name string) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join("cmd", name, "main.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	flags := map[string]bool{"h": true, "help": true}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		switch sel.Sel.Name {
		case "Int", "String", "Bool", "Duration", "Float64", "Uint64":
			if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil {
					flags[s] = true
				}
			}
		}
		return true
	})
	return flags
}

// TestDocsNameRealCommandsAndFlags checks the user-facing docs against the
// tree: every cmd/<name> and examples/<name> they mention is a directory, and
// every flag written after a cmd/<name> is one that command defines.
// CHANGES.md and ROADMAP.md are history and are not scanned.
func TestDocsNameRealCommandsAndFlags(t *testing.T) {
	flagsOf := map[string]map[string]bool{}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range docSpans(string(data)) {
			for _, m := range docRef.FindAllStringSubmatchIndex(span, -1) {
				kind, name := span[m[2]:m[3]], span[m[4]:m[5]]
				if st, err := os.Stat(filepath.Join(kind, name)); err != nil || !st.IsDir() {
					t.Errorf("%s: %q names %s/%s, which does not exist", doc, span, kind, name)
					continue
				}
				if kind != "cmd" {
					continue
				}
				if flagsOf[name] == nil {
					flagsOf[name] = commandFlags(t, name)
				}
				for _, tok := range strings.Fields(span[m[1]:]) {
					if strings.ContainsAny(tok[:1], "|&;>#") {
						break
					}
					if f := docFlag.FindStringSubmatch(tok); f != nil && !flagsOf[name][f[1]] {
						t.Errorf("%s: %q passes -%s, which cmd/%s does not define", doc, span, f[1], name)
					}
				}
			}
		}
	}
}

// exportedNames parses the non-test files of internal/<pkg> and returns the
// exported package-level identifiers they declare: functions, types,
// constants and variables.
func exportedNames(t *testing.T, pkg string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("internal", pkg, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	add := func(id *ast.Ident) {
		if id.IsExported() {
			names[id.Name] = true
		}
	}
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						add(sp.Name)
					case *ast.ValueSpec:
						for _, id := range sp.Names {
							add(id)
						}
					}
				}
			}
		}
	}
	return names
}

// TestDocsNameRealPathsAndAPI checks the user-facing docs against the tree:
// every internal/... path they put in backticks exists, and every
// retrieval., experiments., serve. or dlrm.<Name> is an exported identifier
// of that internal package.
func TestDocsNameRealPathsAndAPI(t *testing.T) {
	api := map[string]map[string]bool{}
	for _, pkg := range []string{"retrieval", "experiments", "serve", "dlrm"} {
		api[pkg] = exportedNames(t, pkg)
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range docSpans(string(data)) {
			for _, m := range docPath.FindAllStringSubmatch(span, -1) {
				if _, err := os.Stat(m[1]); err != nil {
					t.Errorf("%s: %q names %s, which does not exist", doc, span, m[1])
				}
			}
			for _, m := range docAPI.FindAllStringSubmatch(span, -1) {
				if !api[m[1]][m[2]] {
					t.Errorf("%s: %q names %s.%s, which internal/%s does not export", doc, span, m[1], m[2], m[1])
				}
			}
		}
	}
}

// structFields parses file and returns the field names of its struct type
// named typ.
func structFields(t *testing.T, file, typ string) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	ast.Inspect(f, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok || ts.Name.Name != typ {
			return true
		}
		for _, field := range ts.Type.(*ast.StructType).Fields.List {
			for _, id := range field.Names {
				names = append(names, id.Name)
			}
		}
		return false
	})
	if names == nil {
		t.Fatalf("%s declares no struct %s", file, typ)
	}
	return names
}

// retrievalPresets parses internal/retrieval and returns its presets: the
// package-level functions named *Config or *Hardware that return a Config
// or HardwareParams.
func retrievalPresets(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("internal", "retrieval", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !fn.Name.IsExported() || fn.Type.Results == nil ||
				len(fn.Type.Results.List) != 1 {
				continue
			}
			res, ok := fn.Type.Results.List[0].Type.(*ast.Ident)
			name := fn.Name.Name
			if ok && (res.Name == "Config" && strings.HasSuffix(name, "Config") ||
				res.Name == "HardwareParams" && strings.HasSuffix(name, "Hardware")) {
				names = append(names, "retrieval."+name)
			}
		}
	}
	return names
}

// docResult matches a committed results file inside a table cell.
var docResult = regexp.MustCompile(`results/[A-Za-z0-9_.-]+`)

// TestKnobTableCoversEveryKnob holds DESIGN.md's knob reachability table
// (§15) to the tree: one row per retrieval.Config and placement.Config
// field, per retrieval preset and per registered backend, no row for a knob
// that is gone, and every row names a command, example, benchmark workload
// or existing results file that sets or runs its knob — or starts "Unset"
// and says why the knob stays.
func TestKnobTableCoversEveryKnob(t *testing.T) {
	want := map[string]bool{}
	for _, f := range structFields(t, filepath.Join("internal", "retrieval", "config.go"), "Config") {
		want["retrieval.Config."+f] = true
	}
	for _, f := range structFields(t, filepath.Join("internal", "placement", "placement.go"), "Config") {
		want["placement.Config."+f] = true
	}
	for _, p := range retrievalPresets(t) {
		want[p] = true
	}
	for _, b := range retrieval.RegisteredBackends() {
		want[b+" backend"] = true
	}

	var bench struct{ Workloads []struct{ Name string } }
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	workloads := map[string]bool{}
	for _, w := range bench.Workloads {
		workloads[w.Name] = true
	}

	data, err = os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(data), "\n## 15. Knob reachability")
	if !ok {
		t.Fatal("DESIGN.md has no knob reachability section")
	}
	table, _, _ = strings.Cut(table, "\n## ")
	seen := map[string]bool{}
	for _, line := range strings.Split(table, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) != 4 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`") {
			continue
		}
		knob := strings.ReplaceAll(strings.TrimSpace(cells[1]), "`", "")
		by := strings.TrimSpace(cells[2])
		if !want[knob] {
			t.Errorf("DESIGN.md §15 has a row for %s, which does not exist", knob)
		}
		if seen[knob] {
			t.Errorf("DESIGN.md §15 has two rows for %s", knob)
		}
		seen[knob] = true
		if strings.HasPrefix(by, "Unset") {
			continue
		}
		setter := docRef.MatchString(by)
		for _, span := range docSpans(by) {
			setter = setter || workloads[span]
		}
		for _, path := range docResult.FindAllString(by, -1) {
			if _, err := os.Stat(path); err != nil {
				t.Errorf("DESIGN.md §15: %s's row names %s, which does not exist", knob, path)
			}
			setter = true
		}
		if !setter {
			t.Errorf("DESIGN.md §15: %s's row names no command, example, benchmark workload or results file", knob)
		}
	}
	for knob := range want {
		if !seen[knob] {
			t.Errorf("DESIGN.md §15 has no row for %s", knob)
		}
	}
}

// TestResultsReadmeCoversManifest holds results/README.md's file table to
// the artifact manifest: each row names stems and the manifest entry that
// writes them, every stem an entry writes has a row, no row names a stem no
// entry writes, and every file under results/ but bench.json and README.md
// is one an entry writes.
func TestResultsReadmeCoversManifest(t *testing.T) {
	entries, err := experiments.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	writer := map[string]string{}
	for _, e := range entries {
		for _, stem := range e.Stems {
			writer[stem] = e.Name
		}
	}
	data, err := os.ReadFile(filepath.Join("results", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		cells := strings.Split(line, "|")
		if len(cells) != 5 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`") {
			continue
		}
		entry := strings.Trim(strings.TrimSpace(cells[2]), "`")
		for _, stem := range docSpans(cells[1]) {
			switch {
			case writer[stem] == "":
				t.Errorf("results/README.md has a row for %s, which no manifest entry writes", stem)
			case writer[stem] != entry:
				t.Errorf("results/README.md says entry %s writes %s; the manifest says %s", entry, stem, writer[stem])
			}
			if seen[stem] {
				t.Errorf("results/README.md has two rows for %s", stem)
			}
			seen[stem] = true
		}
	}
	for _, e := range entries {
		for _, stem := range e.Stems {
			if !seen[stem] {
				t.Errorf("results/README.md has no row for %s, which manifest entry %s writes", stem, e.Name)
			}
			if _, err := os.Stat(filepath.Join("results", stem+".txt")); err != nil {
				t.Errorf("manifest entry %s writes %s.txt, which results/ does not hold", e.Name, stem)
			}
		}
	}
	files, err := os.ReadDir("results")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		name := f.Name()
		if name == "bench.json" || name == "README.md" {
			continue
		}
		if writer[strings.TrimSuffix(name, filepath.Ext(name))] == "" {
			t.Errorf("results/%s is committed, but no manifest entry writes it", name)
		}
	}
}
