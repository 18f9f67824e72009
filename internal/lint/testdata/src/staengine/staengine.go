// Package staengine is a lint fixture: a package restricted to the
// persistent timing engine that still calls the one-shot sta.Analyze.
package staengine

import (
	"fold3d/internal/netlist"
	"fold3d/internal/sta"
)

// Analyze is a local function that shares the restricted name; calling it
// must not trip the rule.
func Analyze() {}

// FullEveryTime calls the one-shot wrapper: flagged.
func FullEveryTime(b *netlist.Block) (*sta.Report, error) {
	return sta.Analyze(b, 100) // want `call to fold3d/internal/sta\.Analyze: .* persistent sta\.Engine`
}

// Incremental drives the persistent engine: Engine.Analyze is allowed.
func Incremental(e *sta.Engine, dirty []int32) (*sta.Report, error) {
	for _, ni := range dirty {
		e.MarkNetDirty(ni)
	}
	return e.Analyze(100)
}

// LocalName calls the same-named local helper: not a sta call, not flagged.
func LocalName() {
	Analyze()
}
