// Package cliflag holds the command-line plumbing the commands share: size
// checks, comma-separated sweep lists, the -backend choice, the -timeout
// context, table output and error exits.
package cliflag

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"pgasemb/internal/experiments"
	"pgasemb/internal/retrieval"
)

// Fatal reports err, prefixed with the command's name, and exits with
// status 1: the exit for a run that failed.
func Fatal(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", filepath.Base(os.Args[0]), err)
	os.Exit(1)
}

// Usage reports err, prefixed with the command's name, and exits with
// status 2: the exit for a command line the command refuses.
func Usage(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", filepath.Base(os.Args[0]), err)
	os.Exit(2)
}

// RequireAtLeast exits with status 2, naming the flag, if any of the named
// int flags of the parsed command line is below min. Commands call it after
// flag.Parse with min 1 for size flags and min 0 for flags where 0 selects a
// default, so a bad value is refused instead of silently replaced by a
// default.
func RequireAtLeast(min int, names ...string) {
	for _, name := range names {
		if v := flag.Lookup(name).Value.(flag.Getter).Get().(int); v < min {
			Usage(fmt.Errorf("-%s must be at least %d, got %d", name, min, v))
		}
	}
}

// Strings splits value, the value of flag -name, at commas into a sweep
// axis, dropping blanks; an empty axis exits with status 2.
func Strings(name, value string) []string {
	return list(name, value, func(s string) (string, error) { return s, nil })
}

// Floats is Strings for an axis of finite floats; a malformed or non-finite
// entry exits with status 2.
func Floats(name, value string) []float64 {
	return list(name, value, func(s string) (float64, error) {
		v, err := strconv.ParseFloat(s, 64)
		if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
			err = fmt.Errorf("%q is not a finite number", s)
		}
		return v, err
	})
}

func list[T any](name, value string, parse func(string) (T, error)) []T {
	var out []T
	for _, f := range strings.Split(value, ",") {
		if f = strings.TrimSpace(f); f == "" {
			continue
		}
		v, err := parse(f)
		if err != nil {
			Usage(fmt.Errorf("-%s: %w", name, err))
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		Usage(fmt.Errorf("-%s: empty sweep", name))
	}
	return out
}

// Backends resolves value, the value of flag -name, to backends: "both"
// (baseline and pgas-fused), "pgas" (alias for pgas-fused), or a
// comma-separated list of registered backend names. An unknown name exits
// with status 2.
func Backends(name, value string) []retrieval.Backend {
	var names []string
	switch value {
	case "both":
		names = []string{"baseline", "pgas-fused"}
	case "pgas":
		names = []string{"pgas-fused"}
	default:
		names = Strings(name, value)
	}
	backends := make([]retrieval.Backend, len(names))
	for i, n := range names {
		be, err := retrieval.NewBackendByName(n)
		if err != nil {
			Usage(fmt.Errorf("-%s: %w; also accepted: both, pgas", name, err))
		}
		backends[i] = be
	}
	return backends
}

// Context returns the context a command's run honours: bounded by timeout,
// or unbounded when timeout is 0 (the -timeout flag's default).
func Context(timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout > 0 {
		return context.WithTimeout(context.Background(), timeout)
	}
	return context.WithCancel(context.Background())
}

// WriteTable writes t into dir, creating it if needed, as the aligned
// <name>.txt and the <name>.csv.
func WriteTable(dir, name string, t *experiments.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, name+".txt"), []byte(t.Render()), 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".csv"), []byte(t.CSV()), 0o644)
}
