package place

import (
	"fmt"
	"strings"

	"fold3d/internal/errs"
	"fold3d/internal/netlist"
)

// Backend is one placement engine behind the flow's place stage. The flow
// resolves a backend by name through the registry (NewBackend), drives the
// whole global placement through Place, and re-legalizes incrementally
// through LegalizeAll after CTS, repeater insertion and TSV planning edit
// the netlist. Reinit re-arms a pooled backend for its next block exactly
// like a fresh construction would (see Placer.Reinit) — the flow's arena
// pool relies on reinitialized and new backends being interchangeable.
//
// Every backend must be deterministic: byte-identical placements for
// identical (block, Options) inputs regardless of worker count, fleet
// topology or pool temperature. The fingerprint-equivalence tests pin this
// per backend.
type Backend interface {
	// Name returns the registry name the backend was registered under.
	Name() string
	// Place globally places and legalizes every movable cell of b.
	Place(b *netlist.Block) error
	// LegalizeAll re-legalizes from current positions without global
	// placement.
	LegalizeAll(b *netlist.Block) error
	// Reinit re-arms the backend for a new block with fresh options,
	// keeping scratch capacity.
	Reinit(opt Options)
}

// DefaultBackend names the force-directed backend — the paper's own placer
// and the default wherever a placer name is absent. The flow's place-stage
// cache key names the resolved backend, this one included, so no two
// backends share an artifact.
const DefaultBackend = "force"

// backendEntry pairs a registered name with its factory. The registry is an
// ordered slice, not a map: BackendNames feeds error messages, -list output
// and reports, all of which must be deterministic.
type backendEntry struct {
	name    string
	factory func(Options) Backend
}

var backends []backendEntry

// MustRegisterBackend registers a placement backend factory under name.
// Call it from an init function; registering a duplicate or empty name
// panics (a programmer error caught at package-load time, never at
// request time).
func MustRegisterBackend(name string, factory func(Options) Backend) {
	if name == "" || factory == nil {
		panic("place: MustRegisterBackend: empty name or nil factory")
	}
	for _, e := range backends {
		if e.name == name {
			panic("place: MustRegisterBackend: duplicate backend " + name)
		}
	}
	backends = append(backends, backendEntry{name: name, factory: factory})
}

// BackendNames returns the registered backend names in registration order
// (the default force backend first). The slice is a copy.
func BackendNames() []string {
	out := make([]string, len(backends))
	for i, e := range backends {
		out[i] = e.name
	}
	return out
}

// NewBackend constructs the named backend with the given options. An empty
// name selects DefaultBackend. An unknown name fails fast with an error
// wrapping errs.ErrBadRequest and errs.ErrBadOptions that lists the valid
// backends, so transports map it to a client error (HTTP 400, CLI exit 2)
// without string matching.
func NewBackend(name string, opt Options) (Backend, error) {
	if name == "" {
		name = DefaultBackend
	}
	for _, e := range backends {
		if e.name == name {
			return e.factory(opt), nil
		}
	}
	return nil, fmt.Errorf("place: %w: %w: unknown placement backend %q (valid: %s)",
		errs.ErrBadRequest, errs.ErrBadOptions, name, strings.Join(BackendNames(), ", "))
}

// ValidateBackend checks that name is registered (empty selects the
// default) without constructing anything, for request validation layers.
// The failure is the same fail-fast error NewBackend returns.
func ValidateBackend(name string) error {
	if name == "" {
		return nil
	}
	for _, e := range backends {
		if e.name == name {
			return nil
		}
	}
	_, err := NewBackend(name, Options{})
	return err
}

// Name returns the force-directed backend's registry name. The iterative
// wirelength/spreading Placer is the paper's own placement algorithm and
// the registry default.
func (p *Placer) Name() string { return DefaultBackend }

func init() {
	MustRegisterBackend(DefaultBackend, func(opt Options) Backend { return New(opt) })
}
