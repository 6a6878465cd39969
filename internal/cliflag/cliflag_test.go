package cliflag

import (
	"context"
	"errors"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// The list parsers trim entries and drop blanks; "both", "pgas" and
// comma-separated registry names resolve to backends in order.
func TestListsAndBackends(t *testing.T) {
	if got := Strings("profiles", " none, ,straggler "); !reflect.DeepEqual(got, []string{"none", "straggler"}) {
		t.Errorf("Strings = %q", got)
	}
	if got := Floats("rate", "4000, 0.5"); !reflect.DeepEqual(got, []float64{4000, 0.5}) {
		t.Errorf("Floats = %v", got)
	}
	for value, want := range map[string][]string{
		"both":                        {"baseline", "pgas-fused"},
		"pgas":                        {"pgas-fused"},
		"pgas-overlap-only, baseline": {"pgas-overlap-only", "baseline"},
		"pgas-overlap-only":           {"pgas-overlap-only"},
	} {
		var got []string
		for _, be := range Backends("backend", value) {
			got = append(got, be.Name())
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Backends(%q) = %q, want %q", value, got, want)
		}
	}
}

// TestCommandsRejectNonPositiveSizes builds the commands and runs each with a
// size flag below 1, or a negative value of a flag where 0 selects a
// default: every run must exit with status 2 and name the flag, rather than
// run on a default that the command's header misreports. An -only naming no
// manifest entry is refused the same way.
func TestCommandsRejectNonPositiveSizes(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	cases := []struct {
		cmd  string
		args []string
		say  string
	}{
		{"serve", []string{"-gpus", "0"}, "-gpus must be at least 1"},
		{"serve", []string{"-pipeline", "0"}, "-pipeline must be at least 1"},
		{"serve", []string{"-parallel", "-1"}, "-parallel must be at least 0"},
		{"serve", []string{"-rate", "inf"}, `-rate: "inf" is not a finite number`},
		{"dlrminfer", []string{"-gpus", "-1"}, "-gpus must be at least 1"},
		{"dlrminfer", []string{"-batches", "0"}, "-batches must be at least 1"},
		{"dlrminfer", []string{"-pipeline", "0"}, "-pipeline must be at least 1"},
		{"report", []string{"-batches", "-5"}, "-batches must be at least 0"},
		{"report", []string{"-seeds", "-1"}, "-seeds must be at least 0"},
		{"report", []string{"-parallel", "-1"}, "-parallel must be at least 0"},
		{"report", []string{"-only", "fig5"}, `unknown manifest entry "fig5"`},
		{"report", []string{"-only", ","}, "-only: empty sweep"},
	}
	bin := t.TempDir()
	pkgs := []string{"build", "-o", bin + string(filepath.Separator)}
	seen := map[string]bool{}
	for _, c := range cases {
		if !seen[c.cmd] {
			seen[c.cmd] = true
			pkgs = append(pkgs, "pgasemb/cmd/"+c.cmd)
		}
	}
	if out, err := exec.Command(goTool, pkgs...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, c := range cases {
		t.Run(c.cmd+c.args[0], func(t *testing.T) {
			// A command that accepts the value would start its sweep; the
			// short -timeout and a scratch -out bound that failure mode.
			args := append([]string{"-timeout", "2s"}, c.args...)
			if c.cmd == "serve" || c.cmd == "report" {
				args = append(args, "-out", t.TempDir())
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			out, err := exec.CommandContext(ctx, filepath.Join(bin, c.cmd), args...).CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("%s %v: err %v, want exit status 2\n%s", c.cmd, c.args, err, out)
			}
			if !strings.Contains(string(out), c.say) {
				t.Fatalf("%s %v: output does not say %q:\n%s", c.cmd, c.args, c.say, out)
			}
		})
	}
}
