package flow

import (
	"testing"

	"fold3d/internal/place"
	"fold3d/internal/t2"
)

// TestIncrementalFingerprintEquivalence pins the incremental timing
// engine's exactness invariant at the whole-chip level: a build through
// the default incremental path (cone-limited STA re-propagation plus
// dirty-net extraction) must produce a byte-identical fingerprint —
// every report float, every optimizer move, every serialized netlist
// byte — to a build with Opt.FullRecompute, which replays the historical
// full-reanalysis flow. See DESIGN.md §10. The incremental side is the
// shared reference chip.
func TestIncrementalFingerprintEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("two full-chip builds")
	}
	t.Parallel()
	inc := refFingerprint(t, t2.StyleCoreCache, 42, place.DefaultBackend)
	full := chipFingerprintCfg(t, t2.StyleCoreCache, 42, 1, func(c *Config) {
		c.Opt.FullRecompute = true
	})
	if inc != full {
		t.Fatalf("incremental build diverged from full-recompute build:\n%s", firstDiff(inc, full))
	}
}
