package flow

import (
	"fmt"
	"testing"

	"fold3d/internal/pipeline"
	"fold3d/internal/place"
	"fold3d/internal/t2"
)

// TestCacheEquivalence is the cache-hit-equals-recompute property test
// behind the artifact cache: for every design style and several seeds, a
// warm-cache BuildChip must produce a fingerprint byte-identical to a cold
// build, at worker counts 1 and N. The warm runs rebuild the design from
// scratch (fresh netlists, fresh library instances), so this also covers
// the master re-interning path a cross-design cache hit takes. The cold
// build is the shared reference chip. Under -race, a data race in the
// shared cache would masquerade as a fingerprint diff or corrupt a
// restored artifact.
func TestCacheEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("many full-chip builds")
	}
	t.Parallel()
	styles := []t2.Style{t2.Style2D, t2.StyleCoreCache, t2.StyleCoreCore,
		t2.StyleFoldF2B, t2.StyleFoldF2F}
	seeds := []uint64{42, 43, 44}
	for _, style := range styles {
		for _, seed := range seeds {
			t.Run(style.String()+"/"+string(rune('0'+seed-40)), func(t *testing.T) {
				t.Parallel()
				cold := refFingerprint(t, style, seed, place.DefaultBackend)

				cache := pipeline.NewCache(pipeline.CacheOptions{})
				withCache := func(c *Config) { c.Cache = cache }
				populate := chipFingerprintCfg(t, style, seed, 1, withCache)
				if populate != cold {
					t.Fatalf("cold build with cache attached diverged from uncached build:\n%s",
						firstDiff(populate, cold))
				}
				if st := cache.Stats(); st.Stores == 0 {
					t.Fatalf("cold build stored nothing: %+v", st)
				}

				warm1 := chipFingerprintCfg(t, style, seed, 1, withCache)
				if warm1 != cold {
					t.Fatalf("warm build (workers=1) diverged from cold build:\n%s",
						firstDiff(warm1, cold))
				}
				warmN := chipFingerprintCfg(t, style, seed, 4, withCache)
				if warmN != cold {
					t.Fatalf("warm build (workers=4) diverged from cold build:\n%s",
						firstDiff(warmN, cold))
				}
				if st := cache.Stats(); st.Hits == 0 {
					t.Fatalf("warm builds never hit the cache: %+v", st)
				}
			})
		}
	}
}

// TestCacheDiskEquivalence covers the on-disk spill end to end: a cold
// build spills to disk, a fresh in-memory cache over the same directory
// restores from it (flat-codec decode + master re-interning), and the
// result is byte-identical. The budgeted case holds memory to a MaxBytes
// small enough to evict during the build: eviction moves where a lookup
// is served from, never what it returns, so every case matches the
// unbounded cold build too.
func TestCacheDiskEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full-chip builds")
	}
	t.Parallel()
	var unbounded string
	for _, budget := range []int64{0, 256 << 10} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			opts := pipeline.CacheOptions{Dir: t.TempDir(), MaxBytes: budget}
			filled := pipeline.NewCache(opts)
			cold := chipFingerprintCfg(t, t2.StyleFoldF2F, 42, 1, func(c *Config) {
				c.Cache = filled
			})
			fresh := pipeline.NewCache(opts)
			warm := chipFingerprintCfg(t, t2.StyleFoldF2F, 42, 1, func(c *Config) {
				c.Cache = fresh
			})
			if warm != cold {
				t.Fatalf("disk-restored build diverged:\n%s", firstDiff(warm, cold))
			}
			if unbounded == "" {
				unbounded = cold
			} else if cold != unbounded {
				t.Fatalf("budgeted build diverged from the unbounded one:\n%s", firstDiff(cold, unbounded))
			}
			st := fresh.Stats()
			if st.DiskHits == 0 {
				t.Fatalf("no disk hits: %+v", st)
			}
			if st.Corrupt != 0 {
				t.Fatalf("corrupt entries during round trip: %+v", st)
			}
			if budget > 0 && filled.Stats().Evicted == 0 {
				t.Fatalf("budget %d never evicted: %+v", budget, filled.Stats())
			}
		})
	}
}

// TestCacheCrossStyleReuse pins down the reuse matrix claim (DESIGN.md
// §11): rebuilding the same style against a shared cache restores every
// block, and the restored chip is fingerprint-identical — the mechanism
// behind exp.RunAll's shared cache win.
func TestCacheCrossStyleReuse(t *testing.T) {
	if testing.Short() {
		t.Skip("full-chip builds")
	}
	t.Parallel()
	cache := pipeline.NewCache(pipeline.CacheOptions{})
	withCache := func(c *Config) { c.Cache = cache }
	a := chipFingerprintCfg(t, t2.Style2D, 42, 1, withCache)
	stores := cache.Stats().Stores

	b := chipFingerprintCfg(t, t2.Style2D, 42, 1, withCache)
	if a != b {
		t.Fatalf("same-style rebuild diverged:\n%s", firstDiff(a, b))
	}
	st := cache.Stats()
	if st.Stores != stores {
		t.Errorf("same-style rebuild recomputed %d blocks; want all restored", st.Stores-stores)
	}
	if st.Hits != stores {
		t.Errorf("hits = %d, want one per block (%d)", st.Hits, stores)
	}
}
