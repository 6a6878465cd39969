package pgasemb_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// docRef matches a command or example path inside a doc span: cmd/report,
// ./cmd/serve, examples/quickstart.
var docRef = regexp.MustCompile(`(?:^|[^A-Za-z0-9_/])(?:\./)?(cmd|examples)/([A-Za-z0-9_-]+)`)

// docPath matches a repository path under internal/ inside a doc span.
var docPath = regexp.MustCompile(`(?:^|[^A-Za-z0-9_./])(internal/[A-Za-z0-9_./-]*[A-Za-z0-9_])`)

// docAPI matches a facade identifier inside a doc span: pgasemb.RunChaos.
var docAPI = regexp.MustCompile(`(?:^|[^A-Za-z0-9_./])pgasemb\.([A-Za-z_][A-Za-z0-9_]*)`)

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

// facadeNames parses pgasemb.go and returns the exported package-level
// identifiers it declares: functions, types, constants and variables.
func facadeNames(t *testing.T) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "pgasemb.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	add := func(id *ast.Ident) {
		if id.IsExported() {
			names[id.Name] = true
		}
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
	return names
}

// TestDocsNameRealPathsAndAPI checks the user-facing docs against the tree:
// every internal/... path they put in backticks exists, and every
// pgasemb.<Name> is an exported identifier of the facade.
func TestDocsNameRealPathsAndAPI(t *testing.T) {
	api := facadeNames(t)
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
				if !api[m[1]] {
					t.Errorf("%s: %q names pgasemb.%s, which pgasemb.go does not export", doc, span, m[1])
				}
			}
		}
	}
}
