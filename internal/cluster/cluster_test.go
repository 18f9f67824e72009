package cluster

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fold3d/internal/jobs"
	"fold3d/internal/pipeline"
)

func testNodes(n int) []Node {
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = Node{ID: fmt.Sprintf("n%d", i), URL: fmt.Sprintf("http://127.0.0.1:%d", 8000+i)}
	}
	return nodes
}

// TestOwnerStableUnderReordering is the routing property test: the
// consistent-hash owner of a key is a function of the node ID set only —
// shuffling the peer-list order (as different nodes' -peers flags might)
// never moves a single key.
func TestOwnerStableUnderReordering(t *testing.T) {
	nodes := testNodes(5)
	ref, err := New("n0", nodes)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 200)
	for i := range keys {
		h := pipeline.NewHasher()
		h.Int(i)
		keys[i] = string(h.Sum())
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		shuffled := append([]Node(nil), nodes...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		r, err := New("n3", shuffled)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			if got, want := r.Owner(k).ID, ref.Owner(k).ID; got != want {
				t.Fatalf("trial %d: owner of %q moved %s -> %s under reordering", trial, k, want, got)
			}
			if gotSeq, wantSeq := fmt.Sprint(r.Sequence(k)), fmt.Sprint(ref.Sequence(k)); gotSeq != wantSeq {
				t.Fatalf("trial %d: preference order of %q changed under reordering", trial, k)
			}
		}
	}
}

// TestOwnerDistribution sanity-checks that virtual replicas spread keys
// across the fleet instead of piling onto one node.
func TestOwnerDistribution(t *testing.T) {
	r, err := New("n0", testNodes(4))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	const n = 1000
	for i := 0; i < n; i++ {
		counts[r.Owner(fmt.Sprintf("key-%d", i)).ID]++
	}
	for id, c := range counts {
		if c < n/16 {
			t.Errorf("node %s owns only %d/%d keys — distribution badly skewed", id, c, n)
		}
	}
	if len(counts) != 4 {
		t.Errorf("only %d of 4 nodes own any keys", len(counts))
	}
}

// TestSequenceCoversFleet pins the fetch preference order: every node
// exactly once, owner first.
func TestSequenceCoversFleet(t *testing.T) {
	r, err := New("n0", testNodes(4))
	if err != nil {
		t.Fatal(err)
	}
	seq := r.Sequence("somekey")
	if len(seq) != 4 {
		t.Fatalf("Sequence returned %d nodes, want 4", len(seq))
	}
	if seq[0].ID != r.Owner("somekey").ID {
		t.Fatalf("Sequence[0] = %s, want the owner %s", seq[0].ID, r.Owner("somekey").ID)
	}
	seen := map[string]bool{}
	for _, n := range seq {
		if seen[n.ID] {
			t.Fatalf("node %s appears twice in Sequence", n.ID)
		}
		seen[n.ID] = true
	}
}

func TestRingValidation(t *testing.T) {
	cases := []struct {
		name  string
		self  string
		nodes []Node
	}{
		{"empty", "a", nil},
		{"self missing", "ghost", testNodes(2)},
		{"bad id dash", "a", []Node{{ID: "a", URL: "http://x:1"}, {ID: "has-dash", URL: "http://y:1"}}},
		{"bad id upper", "a", []Node{{ID: "A", URL: "http://x:1"}}},
		{"reserved job", "job", []Node{{ID: "job", URL: "http://x:1"}}},
		{"reserved batch", "batch", []Node{{ID: "batch", URL: "http://x:1"}}},
		{"duplicate", "a", []Node{{ID: "a", URL: "http://x:1"}, {ID: "a", URL: "http://y:1"}}},
		{"bad url", "a", []Node{{ID: "a", URL: "not a url"}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.self, tc.nodes); err == nil {
				t.Fatalf("New(%q, %v) accepted", tc.self, tc.nodes)
			}
		})
	}
}

func TestParsePeers(t *testing.T) {
	nodes, err := ParsePeers("a=http://127.0.0.1:8080, b=http://127.0.0.1:8081,")
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 2 || nodes[0].ID != "a" || nodes[1].URL != "http://127.0.0.1:8081" {
		t.Fatalf("ParsePeers = %+v", nodes)
	}
	for _, bad := range []string{"", "nourl", "=http://x", "a="} {
		if _, err := ParsePeers(bad); err == nil {
			t.Errorf("ParsePeers(%q) accepted", bad)
		}
	}
}

func TestOwnerOfID(t *testing.T) {
	ring, err := New("east", []Node{
		{ID: "east", URL: "http://127.0.0.1:8080"},
		{ID: "west", URL: "http://127.0.0.1:8081"},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRouter(ring, "")
	if n, ok := rt.OwnerOfID("west-job-000042"); !ok || n.ID != "west" {
		t.Fatalf("OwnerOfID(west-job-000042) = %v %v", n, ok)
	}
	if n, ok := rt.OwnerOfID("east-batch-000001"); !ok || n.ID != "east" {
		t.Fatalf("OwnerOfID(east-batch-000001) = %v %v", n, ok)
	}
	// Legacy single-node IDs have no node prefix.
	if _, ok := rt.OwnerOfID("job-000001"); ok {
		t.Fatal("OwnerOfID claimed a legacy job ID")
	}
	if _, ok := rt.OwnerOfID("nodash"); ok {
		t.Fatal("OwnerOfID claimed an un-dashed ID")
	}
}

// clusterArtifact is a minimal pipeline.Artifact for peer-tier tests.
type clusterArtifact struct {
	Vals []int
}

// CloneArtifact deep-copies the artifact (pipeline.Artifact contract).
func (a *clusterArtifact) CloneArtifact() pipeline.Artifact {
	return &clusterArtifact{Vals: append([]int(nil), a.Vals...)}
}

func (a *clusterArtifact) ApproxBytes() int64 { return int64(8 * len(a.Vals)) }

func clusterCodec() *pipeline.Codec {
	return &pipeline.Codec{
		Kind:    "clustertest",
		Version: 1,
		Encode:  func(a pipeline.Artifact) ([]byte, error) { return json.Marshal(a.(*clusterArtifact)) },
		Decode: func(b []byte) (pipeline.Artifact, error) {
			var a clusterArtifact
			if err := json.Unmarshal(b, &a); err != nil {
				return nil, err
			}
			return &a, nil
		},
	}
}

// newTierFixture boots a fake peer serving the given artifact responses
// under /v1/artifacts/ and returns a PeerTier whose ring contains self and
// that peer.
func newTierFixture(t *testing.T, token string, entries map[string][]byte) (*PeerTier, *httptest.Server) {
	t.Helper()
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if token != "" && r.Header.Get(TokenHeader) != token {
			w.WriteHeader(http.StatusUnauthorized)
			return
		}
		key := strings.TrimPrefix(r.URL.Path, "/v1/artifacts/")
		entry, ok := entries[key]
		if !ok {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		_, _ = w.Write(entry)
	}))
	t.Cleanup(peer.Close)
	ring, err := New("self", []Node{
		{ID: "self", URL: "http://127.0.0.1:1"}, // never dialed: Fetch skips self
		{ID: "peer", URL: peer.URL},
	})
	if err != nil {
		t.Fatal(err)
	}
	return NewRouter(ring, token).Tier(), peer
}

// TestPeerTierFetchRoundTrip pins the happy path end to end through a real
// HTTP hop: the entry a peer serves restores byte-identically through the
// cache, counted as a peer hit.
func TestPeerTierFetchRoundTrip(t *testing.T) {
	codec := clusterCodec()
	entry, err := pipeline.EncodeEntry(&clusterArtifact{Vals: []int{3, 1, 4}}, codec)
	if err != nil {
		t.Fatal(err)
	}
	tier, _ := newTierFixture(t, "sekrit", map[string][]byte{"abc123": entry})

	cache := pipeline.NewCache(pipeline.CacheOptions{Tiers: []pipeline.CacheTier{tier}})
	got, ok := cache.Get("abc123", codec)
	if !ok {
		t.Fatal("peer entry not fetched")
	}
	if v := got.(*clusterArtifact).Vals; len(v) != 3 || v[0] != 3 || v[2] != 4 {
		t.Fatalf("peer round trip mangled artifact: %v", v)
	}
	if st := cache.Stats(); st.PeerHits != 1 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want one peer hit", st)
	}
}

// TestPeerTierCorruptBodyIsMiss mirrors the disk-spill corruption test
// over the network: a peer serving truncated or bit-flipped bytes yields a
// cache miss (ErrCacheCorrupt semantics), never an error or a wrong
// artifact.
func TestPeerTierCorruptBodyIsMiss(t *testing.T) {
	codec := clusterCodec()
	entry, err := pipeline.EncodeEntry(&clusterArtifact{Vals: []int{7}}, codec)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), entry...)
	flipped[len(flipped)-1] ^= 0xff
	cases := map[string][]byte{
		"truncated": entry[:len(entry)/3],
		"bitflip":   flipped,
		"empty":     {},
		"garbage":   []byte("HTTP error page masquerading as an artifact"),
	}
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			tier, _ := newTierFixture(t, "", map[string][]byte{"k1": body})
			cache := pipeline.NewCache(pipeline.CacheOptions{Tiers: []pipeline.CacheTier{tier}})
			if _, ok := cache.Get("k1", codec); ok {
				t.Fatal("corrupt peer body served as an artifact")
			}
			if st := cache.Stats(); st.Misses != 1 || st.PeerHits != 0 {
				t.Fatalf("stats = %+v, want a clean miss", st)
			}
		})
	}
}

// TestPeerTierMissingAndUnauthorized pins the remaining miss paths: a 404
// and a bad token are both just misses.
func TestPeerTierMissingAndUnauthorized(t *testing.T) {
	codec := clusterCodec()
	tier, _ := newTierFixture(t, "sekrit", map[string][]byte{})
	cache := pipeline.NewCache(pipeline.CacheOptions{Tiers: []pipeline.CacheTier{tier}})
	if _, ok := cache.Get("nothere", codec); ok {
		t.Fatal("404 served as a hit")
	}

	entry, err := pipeline.EncodeEntry(&clusterArtifact{Vals: []int{1}}, codec)
	if err != nil {
		t.Fatal(err)
	}
	goodTier, _ := newTierFixture(t, "sekrit", map[string][]byte{"k": entry})
	// Rebuild the tier's router with the wrong token.
	wrongRing := goodTier.rt.ring
	wrong := NewRouter(wrongRing, "wrong").Tier()
	wrongCache := pipeline.NewCache(pipeline.CacheOptions{Tiers: []pipeline.CacheTier{wrong}})
	if _, ok := wrongCache.Get("k", codec); ok {
		t.Fatal("unauthorized fetch served as a hit")
	}
}

// TestRoutingFingerprintIncludesPlacer pins the routing-identity contract
// of the placement-backend axis: the ring key of a request (its
// jobs.Request.Fingerprint) must separate requests that differ only in
// placer, so two backends never collapse onto one ring owner or cache
// identity — while the empty placer normalizes to the default backend and
// scheduling-only knobs (Workers, Tenant) stay excluded.
func TestRoutingFingerprintIncludesPlacer(t *testing.T) {
	base := jobs.Request{Experiments: []string{"table2"}, Scale: 2000, Seed: 7}
	force := base
	force.Placer = "force"
	analytical := base
	analytical.Placer = "analytical"

	if base.Fingerprint() != force.Fingerprint() {
		t.Error("empty placer must normalize to the default backend's fingerprint")
	}
	if force.Fingerprint() == analytical.Fingerprint() {
		t.Error("requests differing only in placer share a routing fingerprint")
	}
	sched := analytical
	sched.Workers = 7
	sched.Tenant = "acme"
	if sched.Fingerprint() != analytical.Fingerprint() {
		t.Error("Workers/Tenant leaked into the routing fingerprint")
	}

	// The distinct fingerprints are distinct ring keys (the same strings a
	// fleet node hands to Owner when routing a POST): across enough seeds
	// the two backends' keys must land on different owners at least once —
	// if the ring collapsed them, every seed would agree.
	r, err := New("n0", testNodes(8))
	if err != nil {
		t.Fatal(err)
	}
	split := false
	for seed := uint64(1); seed <= 32 && !split; seed++ {
		f := base
		f.Seed = seed
		f.Placer = "force"
		a := f
		a.Placer = "analytical"
		split = r.Owner(f.Fingerprint()).ID != r.Owner(a.Fingerprint()).ID
	}
	if !split {
		t.Error("force and analytical requests always share a ring owner — the ring is not seeing the placer axis")
	}
}
