// Package backendregistry is a lint fixture: a package restricted to the
// placement-backend registry that still constructs backends directly.
package backendregistry

import (
	"fold3d/internal/place"
	"fold3d/internal/place/analytical"
)

// New is a local function that shares the restricted name; calling it must
// not trip the rule.
func New() {}

// DirectForce constructs the force backend behind the registry's back:
// flagged.
func DirectForce() place.Backend {
	return place.New(place.DefaultOptions()) // want `call to fold3d/internal/place\.New: .*registry`
}

// DirectAnalytical constructs the analytical backend behind the registry's
// back: flagged.
func DirectAnalytical() place.Backend {
	return analytical.New(place.DefaultOptions()) // want `call to fold3d/internal/place/analytical\.New: .*registry`
}

// ViaRegistry resolves the backend by name: place.NewBackend validates the
// name and is the sanctioned path, not flagged.
func ViaRegistry(name string) (place.Backend, error) {
	return place.NewBackend(name, place.DefaultOptions())
}

// LocalName calls the same-named local helper: not a backend constructor,
// not flagged.
func LocalName() {
	New()
}
