package flow

import (
	"errors"
	"strings"
	"testing"

	"fold3d/internal/errs"
	"fold3d/internal/pipeline"
	"fold3d/internal/place"
	"fold3d/internal/t2"
)

// withPlacer returns a config hook selecting the named placement backend.
func withPlacer(name string) func(*Config) {
	return func(c *Config) { c.Placer = name }
}

// TestAnalyticalFingerprintEquivalence extends the worker-pool determinism
// contract to the analytical backend: Workers=1 and Workers=4 must produce
// byte-identical chips for every design style, exactly as
// TestParallelFingerprintEquivalence pins for force. The Workers=1 side is
// the shared reference chip.
func TestAnalyticalFingerprintEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("ten full-chip builds")
	}
	t.Parallel()
	styles := []t2.Style{t2.Style2D, t2.StyleCoreCache, t2.StyleCoreCore, t2.StyleFoldF2B, t2.StyleFoldF2F}
	for _, style := range styles {
		t.Run(style.String(), func(t *testing.T) {
			t.Parallel()
			seq := refFingerprint(t, style, 42, "analytical")
			par := chipFingerprintCfg(t, style, 42, 4, withPlacer("analytical"))
			if seq != par {
				t.Errorf("analytical Workers=1 vs Workers=4 fingerprints differ:\n%s", firstDiff(seq, par))
			}
		})
	}
}

// TestBackendsProduceDistinctPlacements sanity-checks that the analytical
// backend is not accidentally routed into the force path: the two backends
// must disagree on at least the placement bytes of a full chip (they share
// the legalizer, so agreement would mean the registry dispatched wrong).
func TestBackendsProduceDistinctPlacements(t *testing.T) {
	if testing.Short() {
		t.Skip("two full-chip builds")
	}
	t.Parallel()
	force := refFingerprint(t, t2.StyleCoreCache, 42, place.DefaultBackend)
	analytical := refFingerprint(t, t2.StyleCoreCache, 42, "analytical")
	if force == analytical {
		t.Fatal("force and analytical produced byte-identical chips; backend dispatch is broken")
	}
}

// TestForceCacheKeyIdentity pins that the place-stage key names the
// resolved backend, not the spelling of the config: a config that leaves
// Placer empty (WithDefaults resolves it to place.DefaultBackend) and one
// that names the default backend must share every stage key — the
// explicit run restores entirely from the first run's entries, storing
// nothing new.
func TestForceCacheKeyIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("full-chip builds")
	}
	t.Parallel()
	cache := pipeline.NewCache(pipeline.CacheOptions{})
	omitted := chipFingerprintCfg(t, t2.StyleCoreCache, 42, 1, func(c *Config) {
		c.Cache = cache
		c.Placer = "" // WithDefaults fills in place.DefaultBackend
	})
	stores := cache.Stats().Stores

	explicit := chipFingerprintCfg(t, t2.StyleCoreCache, 42, 1, func(c *Config) {
		c.Cache = cache
		c.Placer = place.DefaultBackend
	})
	if omitted != explicit {
		t.Fatalf("explicit force diverged from the omitted placer:\n%s", firstDiff(omitted, explicit))
	}
	st := cache.Stats()
	if st.Stores != stores {
		t.Errorf("explicit force stored %d new entries; its keys must equal the omitted placer's keys", st.Stores-stores)
	}
	if st.Hits == 0 {
		t.Error("explicit force never hit the cache the omitted placer filled")
	}
}

// TestCrossBackendCacheIsolation pins the other half of the discipline: a
// cache warmed by one backend must contribute nothing to the other — not
// one memory hit, not one disk hit — because a restored placement from the
// wrong backend would silently corrupt the determinism contract.
func TestCrossBackendCacheIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("full-chip builds")
	}
	t.Parallel()
	// Memory tier: a memory-only cache warmed by force contributes nothing
	// to an analytical run.
	memCache := pipeline.NewCache(pipeline.CacheOptions{})
	chipFingerprintCfg(t, t2.StyleCoreCache, 42, 1, func(c *Config) {
		c.Cache = memCache
		c.Placer = place.DefaultBackend
	})
	if memCache.Stats().Stores == 0 {
		t.Fatal("force build stored nothing; the isolation check below would be vacuous")
	}
	before := memCache.Stats()
	chipFingerprintCfg(t, t2.StyleCoreCache, 42, 1, func(c *Config) {
		c.Cache = memCache
		c.Placer = "analytical"
	})
	if hits := memCache.Stats().Hits - before.Hits; hits != 0 {
		t.Errorf("analytical took %d memory hits from a force-warmed cache", hits)
	}

	// Disk tier: a spill directory holding only force entries contributes
	// nothing to a fresh-cache analytical run.
	dir := t.TempDir()
	chipFingerprintCfg(t, t2.StyleCoreCache, 42, 1, func(c *Config) {
		c.Cache = pipeline.NewCache(pipeline.CacheOptions{Dir: dir})
		c.Placer = place.DefaultBackend
	})
	fresh := pipeline.NewCache(pipeline.CacheOptions{Dir: dir})
	chipFingerprintCfg(t, t2.StyleCoreCache, 42, 1, func(c *Config) {
		c.Cache = fresh
		c.Placer = "analytical"
	})
	if st := fresh.Stats(); st.DiskHits != 0 {
		t.Errorf("fresh analytical run restored %d entries from the force disk spill", st.DiskHits)
	}
}

// TestUnknownBackendFailsFast pins the validation contract: an unknown
// placer name fails the build with an error matching both ErrBadRequest
// and ErrBadOptions and naming the valid backends.
func TestUnknownBackendFailsFast(t *testing.T) {
	d, err := t2.Generate(t2.Config{Scale: 1000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Placer = "simulated-annealing"
	_, err = New(d, cfg).BuildChip(t2.Style2D)
	if err == nil {
		t.Fatal("unknown backend built a chip")
	}
	if !errors.Is(err, errs.ErrBadOptions) || !errors.Is(err, errs.ErrBadRequest) {
		t.Errorf("error %v must match ErrBadOptions and ErrBadRequest", err)
	}
	for _, name := range place.BackendNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not name valid backend %q", err, name)
		}
	}
}
