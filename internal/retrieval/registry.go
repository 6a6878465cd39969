package retrieval

import (
	"fmt"
	"sort"
	"strings"
)

// Backend registry. Every sweepable backend registers a string-keyed
// constructor here; CLIs and the experiment engine resolve -backend flags
// through NewBackendByName instead of hand-rolled switches, so a new backend
// becomes selectable everywhere by adding one RegisterBackend call.
//
// Constructors return a FRESH backend per call: Backend values hold no
// per-run state today, but the registry should not force callers to share.
// Only backends that run on the standard sweep grid register; the
// aggregated PGAS variant stays constructor-only.

// backendEntry is one registered backend: a constructor plus a one-line
// summary shown in CLI help and error messages.
type backendEntry struct {
	summary string
	factory func() Backend
}

var backendRegistry = map[string]backendEntry{}

// RegisterBackend adds a named backend constructor. The name must match what
// the constructed backend's Name() reports — the registry is a lookup table,
// not an aliasing layer. Duplicate registration panics: it is a programmer
// error wiring the binary, never a runtime condition.
func RegisterBackend(name, summary string, factory func() Backend) {
	if _, dup := backendRegistry[name]; dup {
		panic(fmt.Sprintf("retrieval: backend %q registered twice", name))
	}
	if factory == nil {
		panic(fmt.Sprintf("retrieval: backend %q registered with nil factory", name))
	}
	backendRegistry[name] = backendEntry{summary: summary, factory: factory}
}

// NewBackendByName constructs a fresh instance of a registered backend. An
// unknown name errors with the sorted list of registered names, so a typo'd
// -backend flag tells the user what IS available.
func NewBackendByName(name string) (Backend, error) {
	e, ok := backendRegistry[name]
	if !ok {
		return nil, fmt.Errorf("retrieval: unknown backend %q (registered: %s)",
			name, strings.Join(RegisteredBackends(), ", "))
	}
	return e.factory(), nil
}

// RegisteredBackends returns the registered backend names, sorted.
func RegisteredBackends() []string {
	names := make([]string, 0, len(backendRegistry))
	for name := range backendRegistry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// BackendSummary returns the registered one-line description for name, or ""
// if the name is not registered.
func BackendSummary(name string) string {
	return backendRegistry[name].summary
}

func init() {
	RegisterBackend("baseline",
		"dense all-to-all collective exchange (NCCL-style)",
		func() Backend { return &Baseline{} })
	RegisterBackend("baseline-direct-placement",
		"baseline A1 ablation: collective kept, unpack kernel removed",
		func() Backend { return &Baseline{DirectPlacement: true} })
	RegisterBackend("pgas-fused",
		"chunked fused kernel with overlapped one-sided stores",
		func() Backend { return &PGASFused{} })
	RegisterBackend("pgas-overlap-only",
		"pgas A2 ablation: overlap kept, remote staging round kept",
		func() Backend { return &PGASFused{StageRemote: true} })
}
