package flow

import (
	"context"
	"testing"

	"fold3d/internal/core"
	"fold3d/internal/netlist"
	"fold3d/internal/pipeline"
	"fold3d/internal/place"
	"fold3d/internal/t2"
)

// blockHash is the hashBlock fingerprint of b alone.
func blockHash(b *netlist.Block) pipeline.Fingerprint {
	h := pipeline.NewHasher()
	hashBlock(h, b)
	return h.Sum()
}

// TestFoldCacheEquivalence is the cache-hit-equals-recompute property of
// the fold artifact. For every fold path — natural (CCX and L2D), min-cut,
// SPC second-level, and min-cut with an inflated cut — and for a memory and
// a disk tier, a cold cached fold and a warm restored fold must leave the
// block hashing equal to a fresh uncached core.Fold, with an equal
// FoldResult; a wrong-length artifact under the fold's key must fall back
// to recomputation.
func TestFoldCacheEquivalence(t *testing.T) {
	d, err := t2.Generate(t2.Config{Scale: 1000, Seed: 42, Only: []string{"CCX", "L2D0", "L2T0", "SPC0"}})
	if err != nil {
		t.Fatal(err)
	}
	fl := New(d, DefaultConfig())
	if err := attachChipPorts(d, fl); err != nil {
		t.Fatal(err)
	}
	natural, err := core.Fold(d.Blocks["L2T0"].Clone(), fl.foldOptionsFor("L2T0"))
	if err != nil {
		t.Fatal(err)
	}
	inflated := fl.foldOptionsFor("L2T0")
	inflated.InflateCutTo = natural.CutNets + 40

	cases := []struct {
		name, block string
		fo          core.FoldOptions
	}{
		{"ccx-natural", "CCX", fl.foldOptionsFor("CCX")},
		{"l2d-natural", "L2D0", fl.foldOptionsFor("L2D0")},
		{"min-cut", "L2T0", fl.foldOptionsFor("L2T0")},
		{"spc-second-level", "SPC0", fl.foldOptionsFor("SPC0")},
		{"inflate-cut", "L2T0", inflated},
	}
	tiers := []struct {
		name string
		// open returns the cache a run uses; a disk tier opens a fresh
		// memory layer over the same directory each time, so warm runs
		// restore from the spill file.
		open func(dir string) *pipeline.Cache
	}{
		{"memory", nil},
		{"disk", func(dir string) *pipeline.Cache { return pipeline.NewCache(pipeline.CacheOptions{Dir: dir}) }},
	}
	for _, tc := range cases {
		src := d.Blocks[tc.block]
		fresh := src.Clone()
		want, err := core.Fold(fresh, tc.fo)
		if err != nil {
			t.Fatal(err)
		}
		wantHash := blockHash(fresh)
		if len(src.Ports) == 0 {
			t.Fatalf("%s: block %s has no ports to fold", tc.name, tc.block)
		}
		if tc.fo.InflateCutTo > 0 && want.CutNets <= natural.CutNets {
			t.Fatalf("%s: inflation did not raise the cut (%d <= %d)", tc.name, want.CutNets, natural.CutNets)
		}
		for _, tier := range tiers {
			t.Run(tc.name+"/"+tier.name, func(t *testing.T) {
				dir := t.TempDir()
				mem := pipeline.NewCache(pipeline.CacheOptions{})
				open := func() *pipeline.Cache {
					if tier.open == nil {
						return mem
					}
					return tier.open(dir)
				}
				fold := func(c *pipeline.Cache, label string) {
					t.Helper()
					cfg := DefaultConfig()
					cfg.Cache = c
					b := src.Clone()
					got, err := New(d, cfg).foldBlock(context.Background(), b, tc.fo)
					if err != nil {
						t.Fatalf("%s fold: %v", label, err)
					}
					if *got != *want {
						t.Fatalf("%s fold result %+v, want %+v", label, *got, *want)
					}
					if h := blockHash(b); h != wantHash {
						t.Fatalf("%s folded block hashes %.12s, fresh core.Fold %.12s", label, h, wantHash)
					}
				}

				cold := open()
				fold(cold, "cold")
				if st := cold.Stats(); st.Stores != 1 || st.Misses != 1 {
					t.Fatalf("cold fold stats %+v, want one miss and one store", st)
				}
				warm := open()
				before := warm.Stats()
				fold(warm, "warm")
				st := warm.Stats()
				if hits := st.Hits + st.DiskHits - before.Hits - before.DiskHits; hits != 1 || st.Stores != before.Stores {
					t.Fatalf("warm fold stats %+v (before %+v), want one hit and no store", st, before)
				}

				// Overwrite the entry with a wrong-length artifact: the
				// restore must refuse it and the fold must recompute.
				key := (&foldState{b: src.Clone(), fo: tc.fo}).plan(true).Fingerprint()
				bad := open()
				bad.Put(string(key), &foldArtifact{CellDie: []byte{0}}, foldCodec)
				stale := open()
				before = stale.Stats()
				fold(stale, "stale")
				if st := stale.Stats(); st.Stores != before.Stores+1 {
					t.Fatalf("stale fold stats %+v (before %+v), want a recompute and a store", st, before)
				}
			})
		}
	}
}

// TestFoldCacheWarmRebuild pins the chip-level half: a warm fold-F2F
// rebuild restores every fold and every block and stores nothing new. A
// fold-F2B build against the same cache restores the F2F build's folds —
// the fold reads neither the bonding style nor the placer — and must match
// an uncached fold-F2B build.
func TestFoldCacheWarmRebuild(t *testing.T) {
	if testing.Short() {
		t.Skip("full-chip builds")
	}
	t.Parallel()
	cache := pipeline.NewCache(pipeline.CacheOptions{})
	withCache := func(c *Config) { c.Cache = cache }
	cold := chipFingerprintCfg(t, t2.StyleFoldF2F, 42, 1, withCache)
	stores := cache.Stats().Stores
	warm := chipFingerprintCfg(t, t2.StyleFoldF2F, 42, 4, withCache)
	if warm != cold {
		t.Fatalf("warm fold-F2F rebuild diverged:\n%s", firstDiff(warm, cold))
	}
	if st := cache.Stats(); st.Stores != stores {
		t.Errorf("warm fold-F2F rebuild stored %d new entries; want none", st.Stores-stores)
	}

	f2b := chipFingerprintCfg(t, t2.StyleFoldF2B, 42, 1, withCache)
	if want := refFingerprint(t, t2.StyleFoldF2B, 42, place.DefaultBackend); f2b != want {
		t.Fatalf("fold-F2B build restoring F2F folds diverged from an uncached build:\n%s", firstDiff(f2b, want))
	}
}
