// Package cliflag holds the command-line checks the commands share.
package cliflag

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// RequirePositive exits with status 2, naming the flag, if any of the named
// int flags of the parsed command line is below 1. Commands call it after
// flag.Parse for size flags that have no "0 = default" meaning, so a bad
// value is refused instead of silently replaced by a default.
func RequirePositive(names ...string) {
	for _, name := range names {
		if v := flag.Lookup(name).Value.(flag.Getter).Get().(int); v < 1 {
			fmt.Fprintf(os.Stderr, "%s: -%s must be at least 1, got %d\n", filepath.Base(os.Args[0]), name, v)
			os.Exit(2)
		}
	}
}
