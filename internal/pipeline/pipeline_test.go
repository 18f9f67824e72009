package pipeline

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"fold3d/internal/errs"
	"fold3d/internal/pool"
)

// testArtifact is a minimal Artifact for cache tests.
type testArtifact struct {
	Vals []int
}

// testCodec encodes one byte per value, so a payload's length — what the
// MaxBytes budget charges — reads off the literals.
func testCodec() *Codec {
	return &Codec{
		Kind:    "test",
		Version: 1,
		Encode: func(a Artifact) ([]byte, error) {
			vals := a.(*testArtifact).Vals
			out := make([]byte, len(vals))
			for i, v := range vals {
				if v < 0 || v > math.MaxUint8 {
					return nil, fmt.Errorf("test codec: value %d is not a byte", v)
				}
				out[i] = byte(v)
			}
			return out, nil
		},
		Decode: func(b []byte) (Artifact, error) {
			a := &testArtifact{}
			if len(b) > 0 {
				a.Vals = make([]int, len(b))
			}
			for i, v := range b {
				a.Vals[i] = int(v)
			}
			return a, nil
		},
	}
}

func TestHasherFraming(t *testing.T) {
	a := NewHasher()
	a.Str("ab")
	a.Str("c")
	b := NewHasher()
	b.Str("a")
	b.Str("bc")
	if a.Sum() == b.Sum() {
		t.Fatal("length framing broken: (ab)(c) hashed equal to (a)(bc)")
	}
	c := NewHasher()
	c.F64(0)
	d := NewHasher()
	d.F64(math.Copysign(0, -1))
	if c.Sum() == d.Sum() {
		t.Fatal("F64 should distinguish 0 from -0 (bit-exact hashing)")
	}
	e := NewHasher()
	e.Int(-1)
	f := NewHasher()
	f.Uint(^uint64(0))
	g := NewHasher()
	g.Bool(true)
	if e.Sum() != f.Sum() {
		t.Fatal("Int(-1) and Uint(max) should agree (two's complement)")
	}
	if g.Sum() == e.Sum() {
		t.Fatal("Bool and Int collide")
	}
}

// buildPlan makes a three-stage chain plan A -> B -> C with a key knob on B.
func buildPlan(input string, bKnob float64, ran *[]string) *Plan {
	p := NewPlan("t")
	p.SetInput(Fingerprint(input))
	run := func(name string) func(context.Context) error {
		return func(context.Context) error {
			if ran != nil {
				*ran = append(*ran, name)
			}
			return nil
		}
	}
	p.MustAdd(Stage{Name: "a", Run: run("a")})
	p.MustAdd(Stage{Name: "b", After: []string{"a"}, Key: func(h *Hasher) { h.F64(bKnob) }, Run: run("b")})
	p.MustAdd(Stage{Name: "c", After: []string{"b"}, Run: run("c")})
	return p
}

func TestPlanFingerprintStability(t *testing.T) {
	fp1 := buildPlan("in", 1.5, nil).Fingerprint()
	fp2 := buildPlan("in", 1.5, nil).Fingerprint()
	if fp1 != fp2 {
		t.Fatalf("same plan, different fingerprints: %s vs %s", fp1, fp2)
	}
	if fp3 := buildPlan("other", 1.5, nil).Fingerprint(); fp3 == fp1 {
		t.Fatal("input change did not change fingerprint")
	}
	if fp4 := buildPlan("in", 2.5, nil).Fingerprint(); fp4 == fp1 {
		t.Fatal("stage key change did not change fingerprint")
	}
}

func TestPlanAddValidation(t *testing.T) {
	p := NewPlan("v")
	noop := func(context.Context) error { return nil }
	if err := p.Add(Stage{Name: "", Run: noop}); err == nil {
		t.Error("empty name accepted")
	}
	if err := p.Add(Stage{Name: "x"}); err == nil {
		t.Error("nil Run accepted")
	}
	if err := p.Add(Stage{Name: "x", After: []string{"ghost"}, Run: noop}); err == nil {
		t.Error("unregistered dependency accepted")
	}
	if err := p.Add(Stage{Name: "x", Run: noop}); err != nil {
		t.Errorf("valid stage rejected: %v", err)
	}
	if err := p.Add(Stage{Name: "x", Run: noop}); err == nil {
		t.Error("duplicate name accepted")
	}
	if got := p.Stages(); len(got) != 1 || got[0] != "x" {
		t.Errorf("Stages() = %v, want [x]", got)
	}
}

func TestExecutorRunsStagesInOrder(t *testing.T) {
	var ran []string
	p := buildPlan("in", 0, &ran)
	var ex Executor
	if err := ex.Run(context.Background(), p, nil); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ran) != "[a b c]" {
		t.Fatalf("ran %v, want [a b c]", ran)
	}
}

func TestExecutorStageError(t *testing.T) {
	boom := errors.New("boom")
	p := NewPlan("e")
	p.MustAdd(Stage{Name: "a", Run: func(context.Context) error { return boom }})
	ran := false
	p.MustAdd(Stage{Name: "b", After: []string{"a"}, Run: func(context.Context) error { ran = true; return nil }})
	var ex Executor
	if err := ex.Run(context.Background(), p, nil); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if ran {
		t.Fatal("stage after failing stage still ran")
	}
}

func TestExecutorCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran []string
	p := buildPlan("in", 0, &ran)
	var ex Executor
	err := ex.Run(ctx, p, nil)
	if !errors.Is(err, errs.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if len(ran) != 0 {
		t.Fatalf("stages ran after cancellation: %v", ran)
	}
}

func TestExecutorCacheHitSkipsStages(t *testing.T) {
	cache := NewCache(CacheOptions{})
	spec := func(out *testArtifact) *ArtifactSpec {
		return &ArtifactSpec{
			Codec:   testCodec(),
			Capture: func() (Artifact, error) { return out, nil },
			Restore: func(a Artifact) error { *out = *a.(*testArtifact); return nil },
		}
	}
	var ran []string
	art := &testArtifact{Vals: []int{0}}
	p := buildPlan("in", 0, &ran)
	p.stages[0].Run = func(context.Context) error { ran = append(ran, "a"); art.Vals[0] = 42; return nil }
	ex := Executor{Cache: cache}
	if err := ex.Run(context.Background(), p, spec(art)); err != nil {
		t.Fatal(err)
	}
	if len(ran) != 3 || art.Vals[0] != 42 {
		t.Fatalf("cold run: ran=%v art=%v", ran, art)
	}

	ran = nil
	art2 := &testArtifact{Vals: []int{0}}
	p2 := buildPlan("in", 0, &ran)
	p2.stages[0].Run = func(context.Context) error { ran = append(ran, "a"); art2.Vals[0] = 42; return nil }
	if err := ex.Run(context.Background(), p2, spec(art2)); err != nil {
		t.Fatal(err)
	}
	if len(ran) != 0 {
		t.Fatalf("warm run executed stages: %v", ran)
	}
	if art2.Vals[0] != 42 {
		t.Fatalf("restore did not install artifact: %v", art2)
	}
	st := cache.Stats()
	if st.Hits != 1 || st.Stores != 1 {
		t.Fatalf("stats = %+v, want 1 hit 1 store", st)
	}

	// Mutating the restored artifact must not leak into the cache.
	art2.Vals[0] = 7
	art3 := &testArtifact{Vals: []int{0}}
	p3 := buildPlan("in", 0, nil)
	if err := ex.Run(context.Background(), p3, spec(art3)); err != nil {
		t.Fatal(err)
	}
	if art3.Vals[0] != 42 {
		t.Fatalf("cache entry aliased a restored artifact: %v", art3)
	}
}

func TestExecutorRestoreFailureRecomputes(t *testing.T) {
	cache := NewCache(CacheOptions{})
	art := &testArtifact{Vals: []int{1}}
	p := buildPlan("in", 0, nil)
	ex := Executor{Cache: cache}
	ok := &ArtifactSpec{
		Codec:   testCodec(),
		Capture: func() (Artifact, error) { return art, nil },
		Restore: func(Artifact) error { return nil },
	}
	if err := ex.Run(context.Background(), p, ok); err != nil {
		t.Fatal(err)
	}
	var ran []string
	p2 := buildPlan("in", 0, &ran)
	bad := &ArtifactSpec{
		Codec:   testCodec(),
		Capture: func() (Artifact, error) { return art, nil },
		Restore: func(Artifact) error { return errors.New("shape mismatch") },
	}
	if err := ex.Run(context.Background(), p2, bad); err != nil {
		t.Fatal(err)
	}
	if len(ran) != 3 {
		t.Fatalf("restore failure should recompute all stages, ran %v", ran)
	}
}

// TestExecutorSingleFlight runs one plan from many goroutines against one
// cache: its stages run once, the cache counts one miss and one store, and
// every other Run waits for the owner and restores its artifact.
func TestExecutorSingleFlight(t *testing.T) {
	const n = 8
	cache := NewCache(CacheOptions{})
	ex := Executor{Cache: cache}
	var started sync.WaitGroup
	started.Add(n)
	var mu sync.Mutex
	runs := 0
	outs := make([]*testArtifact, n)
	err := pool.Run(context.Background(), n, n, func(ctx context.Context, i int) error {
		out := &testArtifact{}
		outs[i] = out
		p := buildPlan("in", 0, nil)
		p.stages[0].Run = func(context.Context) error {
			mu.Lock()
			runs++
			mu.Unlock()
			// Hold the key until every caller has started, so the others
			// meet it in flight instead of finding it stored.
			started.Wait()
			out.Vals = []int{42}
			return nil
		}
		spec := &ArtifactSpec{
			Codec:   testCodec(),
			Capture: func() (Artifact, error) { return out, nil },
			Restore: func(a Artifact) error { *out = *a.(*testArtifact); return nil },
		}
		started.Done()
		return ex.Run(ctx, p, spec)
	})
	if err != nil {
		t.Fatal(err)
	}
	if runs != 1 {
		t.Fatalf("stages ran %d times, want once", runs)
	}
	if st := cache.Stats(); st.Misses != 1 || st.Stores != 1 || st.Hits != n-1 {
		t.Fatalf("stats = %+v, want 1 miss, 1 store, %d hits", st, n-1)
	}
	for i, out := range outs {
		if !slices.Equal(out.Vals, []int{42}) {
			t.Errorf("run %d got %v, want [42]", i, out.Vals)
		}
	}
}

// TestExecutorSingleFlightHandoff pins the failure paths of single-flight:
// a waiter whose own context is done gives up without running anything,
// and an owner that is canceled releases its key without storing, so the
// waiter computes the plan itself.
func TestExecutorSingleFlightHandoff(t *testing.T) {
	cache := NewCache(CacheOptions{})
	ex := Executor{Cache: cache}
	run := func(ctx context.Context, stage func(context.Context) error, ran *[]string, out *testArtifact) error {
		p := buildPlan("in", 0, ran)
		if stage != nil {
			p.stages[0].Run = stage
		}
		spec := &ArtifactSpec{
			Codec:   testCodec(),
			Capture: func() (Artifact, error) { return out, nil },
			Restore: func(a Artifact) error { *out = *a.(*testArtifact); return nil },
		}
		return ex.Run(ctx, p, spec)
	}
	ownerCtx, cancelOwner := context.WithCancel(context.Background())
	defer cancelOwner()
	claimed := make(chan struct{})
	var ownerErr, waiterErr error
	var waiterRan []string
	err := pool.Run(context.Background(), 2, 2, func(_ context.Context, i int) error {
		if i == 0 {
			ownerErr = run(ownerCtx, func(ctx context.Context) error {
				close(claimed)
				<-ctx.Done()
				return ctx.Err()
			}, nil, &testArtifact{Vals: []int{1}})
			return nil
		}
		<-claimed
		gone, cancel := context.WithCancel(context.Background())
		cancel()
		var ran []string
		if err := run(gone, nil, &ran, &testArtifact{Vals: []int{2}}); !errors.Is(err, errs.ErrCanceled) || len(ran) != 0 {
			return fmt.Errorf("canceled waiter: err = %v, ran %v; want ErrCanceled and nothing run", err, ran)
		}
		// Cancel the owner once the waiter below is most likely waiting on
		// it; if it is not waiting yet, it finds the key released and the
		// outcome is the same.
		time.AfterFunc(20*time.Millisecond, cancelOwner)
		waiterErr = run(context.Background(), nil, &waiterRan, &testArtifact{Vals: []int{3}})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(ownerErr, context.Canceled) {
		t.Fatalf("owner err = %v, want context.Canceled", ownerErr)
	}
	if waiterErr != nil || len(waiterRan) != 3 {
		t.Fatalf("waiter err = %v, ran %v; want it to compute the plan", waiterErr, waiterRan)
	}
	if st := cache.Stats(); st.Stores != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 1 store (the waiter's) and 2 misses", st)
	}
	got := &testArtifact{}
	if err := run(context.Background(), nil, nil, got); err != nil || !slices.Equal(got.Vals, []int{3}) {
		t.Fatalf("restored %v (err %v), want the waiter's [3]", got.Vals, err)
	}
}

func TestCacheDiskSpillRoundTrip(t *testing.T) {
	dir := t.TempDir()
	codec := testCodec()
	c1 := NewCache(CacheOptions{Dir: dir})
	c1.Put("aabbcc", &testArtifact{Vals: []int{1, 2, 3}}, codec)

	// A fresh cache over the same dir serves the entry from disk.
	c2 := NewCache(CacheOptions{Dir: dir})
	got, ok := c2.Get("aabbcc", codec)
	if !ok {
		t.Fatal("disk entry not found")
	}
	if v := got.(*testArtifact).Vals; len(v) != 3 || v[2] != 3 {
		t.Fatalf("round trip mangled artifact: %v", v)
	}
	st := c2.Stats()
	if st.DiskHits != 1 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want exactly one disk hit", st)
	}
	// The disk hit promotes to memory.
	if _, ok := c2.Get("aabbcc", codec); !ok {
		t.Fatal("promoted entry missing")
	}
	if st := c2.Stats(); st.Hits != 1 {
		t.Fatalf("stats after promotion = %+v, want one memory hit", st)
	}
}

// TestDiskTierConcurrentStoreOneKey races writers of one key against
// readers of it: every fetch that finds the entry must decode whole, and
// no temp file may outlive its write.
func TestDiskTierConcurrentStoreOneKey(t *testing.T) {
	dir := t.TempDir()
	tier := NewDiskTier(dir)
	codec := testCodec()
	const key = "c0ffee"
	entries := make([][]byte, 4)
	for i := range entries {
		vals := make([]int, 20000) // a multi-block file widens any torn-write window
		for j := range vals {
			vals[j] = i
		}
		e, err := EncodeEntry(&testArtifact{Vals: vals}, codec)
		if err != nil {
			t.Fatal(err)
		}
		entries[i] = e
	}
	const writers, readers, rounds = 4, 4, 25
	err := pool.Run(context.Background(), writers+readers, writers+readers, func(_ context.Context, w int) error {
		for r := 0; r < rounds; r++ {
			if w < writers {
				if err := tier.Store(key, entries[w]); err != nil {
					return err
				}
				continue
			}
			data, err := tier.Fetch(key)
			if err != nil {
				continue // not written yet
			}
			if _, err := DecodeEntry(data, codec); err != nil {
				return fmt.Errorf("reader %d round %d: %w", w, r, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	left, err := filepath.Glob(filepath.Join(dir, "*", "*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("temp files left behind: %v", left)
	}
}

func TestCacheCorruptEntryFallsBack(t *testing.T) {
	dir := t.TempDir()
	codec := testCodec()
	c := NewCache(CacheOptions{Dir: dir})
	c.Put("deadbeef", &testArtifact{Vals: []int{9}}, codec)

	// Flip a payload byte on disk.
	path := filepath.Join(dir, "de", "adbeef.f3dc")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	fresh := NewCache(CacheOptions{Dir: dir})
	if _, ok := fresh.Get("deadbeef", codec); ok {
		t.Fatal("corrupt entry served")
	}
	st := fresh.Stats()
	if st.Corrupt != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want corrupt=1 misses=1", st)
	}

	// DecodeEntry reports the sentinel for direct probes.
	if _, err := DecodeEntry(data, codec); !errors.Is(err, errs.ErrCacheCorrupt) {
		t.Fatalf("err = %v, want ErrCacheCorrupt", err)
	}
}

func TestCacheVersionSkewIsMissNotCorrupt(t *testing.T) {
	dir := t.TempDir()
	codec := testCodec()
	c := NewCache(CacheOptions{Dir: dir})
	c.Put("cafe01", &testArtifact{Vals: []int{1}}, codec)

	newer := testCodec()
	newer.Version = 2
	fresh := NewCache(CacheOptions{Dir: dir})
	if _, ok := fresh.Get("cafe01", newer); ok {
		t.Fatal("entry from older codec version served")
	}
	st := fresh.Stats()
	if st.Corrupt != 0 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want a clean miss (corrupt=0)", st)
	}
}

func TestCacheMemoryOnlyWithoutDir(t *testing.T) {
	c := NewCache(CacheOptions{})
	codec := testCodec()
	c.Put("k", &testArtifact{Vals: []int{5}}, codec)
	if n := c.Stats().Entries; n != 1 {
		t.Fatalf("Entries = %d, want 1", n)
	}
	if _, ok := c.Get("missing", codec); ok {
		t.Fatal("phantom hit")
	}
	got, ok := c.Get("k", codec)
	if !ok || got.(*testArtifact).Vals[0] != 5 {
		t.Fatalf("memory get failed: %v %v", got, ok)
	}
}

// TestCacheRequiresCodec pins the nil-codec contract: Put stores nothing,
// Get misses even when an entry is held, and the executor runs a spec
// without a codec uncached.
func TestCacheRequiresCodec(t *testing.T) {
	c := NewCache(CacheOptions{Dir: t.TempDir()})
	c.Put("aa", &testArtifact{Vals: []int{1}}, nil)
	if st := c.Stats(); st.Stores != 0 || st.Entries != 0 {
		t.Fatalf("nil-codec Put stored: %+v", st)
	}
	c.Put("aa", &testArtifact{Vals: []int{1}}, testCodec())
	if _, ok := c.Get("aa", nil); ok {
		t.Fatal("nil-codec Get hit")
	}
	if _, ok := c.Get("aa", &Codec{Kind: "test", Version: 2, Decode: testCodec().Decode}); ok {
		t.Fatal("Get decoded a memory entry of another codec version")
	}

	var ran []string
	spec := &ArtifactSpec{
		Capture: func() (Artifact, error) { return &testArtifact{}, nil },
		Restore: func(Artifact) error { return nil },
	}
	ex := Executor{Cache: c}
	for i := 0; i < 2; i++ {
		if err := ex.Run(context.Background(), buildPlan("in", 0, &ran), spec); err != nil {
			t.Fatal(err)
		}
	}
	if len(ran) != 6 {
		t.Fatalf("codec-less spec ran %v; want every stage both times", ran)
	}
}

// TestStatsHitRatio pins the HitRatio accessor: hits from memory and disk
// both count, the empty snapshot reads 0 (not NaN), and the String form
// carries the ratio for the -cachestats report.
func TestStatsHitRatio(t *testing.T) {
	if r := (Stats{}).HitRatio(); r != 0 {
		t.Errorf("empty HitRatio = %v, want 0", r)
	}
	s := Stats{Hits: 3, DiskHits: 1, Misses: 4}
	if r := s.HitRatio(); r != 0.5 {
		t.Errorf("HitRatio = %v, want 0.5", r)
	}
	if got := s.String(); !strings.Contains(got, "hit_ratio=0.500") {
		t.Errorf("String() = %q, want it to carry hit_ratio=0.500", got)
	}
}

// TestCacheStatsSnapshotUnderLoad drives concurrent Put/Get/EntryBytes/
// Stats through the race detector: Stats must snapshot under the cache
// lock, never observe torn counters, and end exactly consistent with the
// operations performed; on-demand peer encoding must always restore.
func TestCacheStatsSnapshotUnderLoad(t *testing.T) {
	c := NewCache(CacheOptions{})
	codec := testCodec()
	const n = 64
	err := pool.Run(context.Background(), 8, n, func(_ context.Context, i int) error {
		key := fmt.Sprintf("a%d", i%8)
		c.Put(key, &testArtifact{Vals: []int{i}}, codec)
		c.Get(key, codec)
		entry, ok := c.EntryBytes(key)
		if !ok {
			return fmt.Errorf("EntryBytes(%s) missed a held entry", key)
		}
		if _, err := DecodeEntry(entry, codec); err != nil {
			return fmt.Errorf("EntryBytes(%s): %v", key, err)
		}
		st := c.Stats()
		if st.Hits < 0 || st.Stores < 0 || st.Entries < 0 || st.Entries > n {
			return fmt.Errorf("torn snapshot: %+v", st)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Stores != n || st.Hits != n || st.Entries != 8 {
		t.Fatalf("final stats = %+v, want stores=%d hits=%d entries=8", st, n, n)
	}
}

// fakeTier is an in-memory CacheTier standing in for a network peer in
// tests: entries can be preloaded (warm peer), corrupted, or left absent.
type fakeTier struct {
	mu      sync.Mutex
	entries map[string][]byte
	fetches int
}

func newFakeTier() *fakeTier { return &fakeTier{entries: map[string][]byte{}} }

func (f *fakeTier) Fetch(key string) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fetches++
	entry, ok := f.entries[key]
	if !ok {
		return nil, fmt.Errorf("fakeTier: %q: %w", key, os.ErrNotExist)
	}
	return entry, nil
}

// TestCachePeerTierHit pins the network-tier path end to end: a miss in
// memory and disk falls through to the peer tier, the fetched entry
// restores byte-identically, counts as a PeerHit, promotes to memory, and
// writes back into the disk tier so the next process start stops there.
func TestCachePeerTierHit(t *testing.T) {
	codec := testCodec()
	peer := newFakeTier()
	entry, err := EncodeEntry(&testArtifact{Vals: []int{7, 8, 9}}, codec)
	if err != nil {
		t.Fatal(err)
	}
	peer.entries["feed01"] = entry

	dir := t.TempDir()
	c := NewCache(CacheOptions{Dir: dir, Tiers: []CacheTier{peer}})
	got, ok := c.Get("feed01", codec)
	if !ok {
		t.Fatal("peer entry not found")
	}
	if v := got.(*testArtifact).Vals; len(v) != 3 || v[0] != 7 || v[2] != 9 {
		t.Fatalf("peer round trip mangled artifact: %v", v)
	}
	st := c.Stats()
	if st.PeerHits != 1 || st.DiskHits != 0 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want exactly one peer hit", st)
	}
	if !strings.Contains(st.String(), "peer_hits=1") {
		t.Fatalf("String() = %q, want peer_hits=1", st.String())
	}
	// Write-back: a fresh cache over the same dir now hits disk, not peer.
	fresh := NewCache(CacheOptions{Dir: dir, Tiers: []CacheTier{peer}})
	if _, ok := fresh.Get("feed01", codec); !ok {
		t.Fatal("written-back entry missing from disk")
	}
	if st := fresh.Stats(); st.DiskHits != 1 || st.PeerHits != 0 {
		t.Fatalf("fresh stats = %+v, want the write-back served from disk", st)
	}
	// Promotion: the original cache serves from memory without refetching.
	before := peer.fetches
	if _, ok := c.Get("feed01", codec); !ok {
		t.Fatal("promoted entry missing")
	}
	if peer.fetches != before {
		t.Fatal("memory hit refetched from the peer tier")
	}
}

// TestCachePeerTierCorruptIsMiss mirrors the disk-spill corruption test
// for the network tier: a truncated or bit-flipped peer entry is a counted
// miss, never an error, and does not poison the cache.
func TestCachePeerTierCorruptIsMiss(t *testing.T) {
	codec := testCodec()
	entry, err := EncodeEntry(&testArtifact{Vals: []int{1}}, codec)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"bitflip":   append(append([]byte(nil), entry[:len(entry)-1]...), entry[len(entry)-1]^0xff),
		"truncated": entry[:len(entry)/2],
		"empty":     {},
		"garbage":   []byte("not a cache entry at all"),
	}
	for name, bad := range cases {
		t.Run(name, func(t *testing.T) {
			peer := newFakeTier()
			peer.entries["abc123"] = bad
			c := NewCache(CacheOptions{Tiers: []CacheTier{peer}})
			if _, ok := c.Get("abc123", codec); ok {
				t.Fatal("corrupt peer entry served")
			}
			st := c.Stats()
			if st.Misses != 1 {
				t.Fatalf("stats = %+v, want misses=1", st)
			}
			if name != "empty" && name != "truncated" && st.Corrupt != 1 {
				// Truncated-to-header and empty bodies also count corrupt;
				// assert the bit-flip and garbage cases explicitly.
				t.Fatalf("stats = %+v, want corrupt=1", st)
			}
		})
	}
}

// TestCacheEntryBytes pins the peer-serving path: EntryBytes encodes a
// memory entry on demand or reads the disk spill, never consults remote
// tiers (so peer lookups cannot cascade), and serves no key outside the
// hex alphabet of a fingerprint.
func TestCacheEntryBytes(t *testing.T) {
	codec := testCodec()
	art := &testArtifact{Vals: []int{4, 5}}
	want, err := EncodeEntry(art, codec)
	if err != nil {
		t.Fatal(err)
	}

	// Memory: encoded on demand, no disk needed, and it restores.
	mem := NewCache(CacheOptions{})
	mem.Put("aa11", art, codec)
	got, ok := mem.EntryBytes("aa11")
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("memory EntryBytes mismatch (ok=%v)", ok)
	}
	back, err := DecodeEntry(got, codec)
	if err != nil || !slices.Equal(back.(*testArtifact).Vals, art.Vals) {
		t.Fatalf("memory entry does not restore: %v %v", back, err)
	}

	// Disk spill: a fresh cache over the same directory serves the file.
	dir := t.TempDir()
	NewCache(CacheOptions{Dir: dir}).Put("bb22", art, codec)
	got, ok = NewCache(CacheOptions{Dir: dir}).EntryBytes("bb22")
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("disk EntryBytes mismatch (ok=%v)", ok)
	}

	// A key that is not hex never reaches the disk, even when it would
	// name a real entry file outside the spill directory.
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "x.f3dc"), want, 0o644); err != nil {
		t.Fatal(err)
	}
	escape := NewCache(CacheOptions{Dir: filepath.Join(root, "cache")})
	for _, key := range []string{"../x", "", "AA11", "aa11/.."} {
		if _, ok := escape.EntryBytes(key); ok {
			t.Errorf("EntryBytes(%q) served a file outside the cache", key)
		}
	}

	// Remote tiers are never consulted.
	peer := newFakeTier()
	peer.entries["cc33"] = want
	remote := NewCache(CacheOptions{Tiers: []CacheTier{peer}})
	if _, ok := remote.EntryBytes("cc33"); ok {
		t.Fatal("EntryBytes consulted a remote tier")
	}
	if peer.fetches != 0 {
		t.Fatalf("EntryBytes fetched from the peer tier %d times", peer.fetches)
	}

	// Unknown key without any local copy.
	if _, ok := mem.EntryBytes("ee55"); ok {
		t.Fatal("EntryBytes invented an entry")
	}
}

// TestCacheBudget pins the MaxBytes accounting (a testCodec payload is
// one byte per value): FIFO eviction and its Evicted count, the entry just
// inserted is never evicted, an overwrite keeps its FIFO age and
// re-accounts its size, a payload over the whole budget is not held but
// spills and comes back as a disk hit, and EntryBytes of an evicted key
// falls back to the spill.
func TestCacheBudget(t *testing.T) {
	codec := testCodec()
	c := NewCache(CacheOptions{Dir: t.TempDir(), MaxBytes: 10})
	put := func(key string, n int) *testArtifact {
		art := &testArtifact{Vals: make([]int, n)}
		c.Put(key, art, codec)
		return art
	}
	// check asserts the Evicted count and which keys memory holds (read
	// straight from the map: a Get would promote from the spill).
	check := func(step string, evicted int, want ...string) {
		t.Helper()
		var held []string
		c.mu.Lock()
		for _, k := range []string{"aaaa", "bbbb", "cccc", "dddd", "eeee", "ffff"} {
			if _, ok := c.entries[k]; ok {
				held = append(held, k)
			}
		}
		c.mu.Unlock()
		if st := c.Stats(); st.Evicted != evicted || st.Entries != len(want) || !slices.Equal(held, want) {
			t.Fatalf("%s: evicted=%d entries=%d held=%v, want evicted=%d held=%v",
				step, st.Evicted, st.Entries, held, evicted, want)
		}
	}

	a := put("aaaa", 4)
	put("bbbb", 4)
	check("under budget", 0, "aaaa", "bbbb")
	put("cccc", 4) // 12 > 10: the oldest goes
	check("fifo", 1, "bbbb", "cccc")

	// Overwriting bbbb with 2 values frees 2 bytes, so dddd fits without
	// an eviction (8+4 would not) ...
	put("bbbb", 2)
	put("dddd", 4)
	check("overwrite re-accounts", 1, "bbbb", "cccc", "dddd")
	// ... and bbbb kept its age: it is still the oldest.
	put("eeee", 1)
	check("overwrite keeps age", 2, "cccc", "dddd", "eeee")

	// Growing the oldest entry to the whole budget must evict the others,
	// never itself.
	put("cccc", 10)
	check("inserted survives", 4, "cccc")
	if got, _ := c.Get("cccc", codec); len(got.(*testArtifact).Vals) != 10 {
		t.Fatalf("overwritten entry holds %v", got)
	}

	// Over the whole budget: not held, but spilled.
	put("ffff", 11)
	check("over budget", 4, "cccc")
	if got, ok := c.Get("ffff", codec); !ok || len(got.(*testArtifact).Vals) != 11 {
		t.Fatalf("over-budget artifact not served from the spill: %v %v", got, ok)
	}
	if st := c.Stats(); st.DiskHits != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want one disk hit and still one entry", st)
	}

	// An evicted key is served to peers from the spill.
	want, err := EncodeEntry(a, codec)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := c.EntryBytes("aaaa"); !ok || !bytes.Equal(got, want) {
		t.Fatalf("evicted EntryBytes did not fall back to disk (ok=%v)", ok)
	}
}

// FuzzDecodeEntry feeds arbitrary bytes to the wire entry decoder, seeded
// with real entries and their truncations and single-bit flips. It must
// never panic: an input either fails, or decodes to an artifact whose
// re-encoding decodes to an equal artifact.
func FuzzDecodeEntry(f *testing.F) {
	codec := testCodec()
	for _, vals := range [][]int{nil, {7}, {1, 2, 3, 250}} {
		entry, err := EncodeEntry(&testArtifact{Vals: vals}, codec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(entry)
		for _, n := range []int{0, 3, 14, 20, len(entry) - 1} {
			f.Add(entry[:n])
		}
		for bit := 0; bit < 8*len(entry); bit += 5 {
			flipped := slices.Clone(entry)
			flipped[bit/8] ^= 1 << (bit % 8)
			f.Add(flipped)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		art, err := DecodeEntry(data, codec)
		if err != nil {
			return
		}
		again, err := EncodeEntry(art, codec)
		if err != nil {
			t.Fatalf("decoded artifact does not re-encode: %v", err)
		}
		back, err := DecodeEntry(again, codec)
		if err != nil {
			t.Fatalf("re-encoded entry does not decode: %v", err)
		}
		if !reflect.DeepEqual(art, back) {
			t.Fatalf("round trip changed the artifact: %v -> %v", art, back)
		}
	})
}
