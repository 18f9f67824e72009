package server

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"fold3d/internal/cluster"
	"fold3d/internal/jobs"
	"fold3d/internal/pipeline"
)

// fleetToken is the shared peer secret every fleet fixture uses, so the
// forward and artifact paths exercise authentication too.
const fleetToken = "fleet-test-secret"

// fleetNode is one in-process daemon of a test fleet: its HTTP server,
// manager, cache (for stats assertions) and ring (for owner probes).
type fleetNode struct {
	id    string
	srv   *httptest.Server
	mgr   *jobs.Manager
	cache *pipeline.Cache
	ring  *cluster.Ring
}

// newFleet boots n fully-wired nodes that know each other as peers.
// Listeners are allocated before any ring is built so every node's URL is
// known up front; each node gets its own cache with the peer network tier
// and a single scheduler worker (the host has one CPU — more workers per
// node would only interleave).
func newFleet(tb testing.TB, n, depth int) []*fleetNode {
	tb.Helper()
	return newFleetTiers(tb, n, depth, nil)
}

// newFleetTiers is newFleet with wrap, when non-nil, applied to node i's
// peer tier before its cache is built.
func newFleetTiers(tb testing.TB, n, depth int, wrap func(i int, tier pipeline.CacheTier) pipeline.CacheTier) []*fleetNode {
	tb.Helper()
	lns := make([]net.Listener, n)
	nodes := make([]cluster.Node, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		lns[i] = ln
		nodes[i] = cluster.Node{ID: fmt.Sprintf("n%d", i), URL: "http://" + ln.Addr().String()}
	}
	fleet := make([]*fleetNode, n)
	for i := range fleet {
		ring, err := cluster.New(nodes[i].ID, nodes)
		if err != nil {
			tb.Fatal(err)
		}
		router := cluster.NewRouter(ring, fleetToken)
		var peer pipeline.CacheTier = router.Tier()
		if wrap != nil {
			peer = wrap(i, peer)
		}
		cache := pipeline.NewCache(pipeline.CacheOptions{
			Tiers:    []pipeline.CacheTier{peer},
			KeepWire: true,
		})
		mgr := jobs.NewManager(jobs.Options{Workers: 1, QueueDepth: depth, Cache: cache, NodeID: nodes[i].ID})
		srv := httptest.NewUnstartedServer(NewWithOptions(Options{Manager: mgr, Router: router}))
		srv.Listener.Close()
		srv.Listener = lns[i]
		srv.Start()
		fleet[i] = &fleetNode{id: nodes[i].ID, srv: srv, mgr: mgr, cache: cache, ring: ring}
	}
	tb.Cleanup(func() {
		for _, fn := range fleet {
			fn.srv.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			_ = fn.mgr.Close(ctx)
			cancel()
		}
	})
	return fleet
}

// fleetReqs is the request mix every fleet test runs: one experiment at
// several seeds plus scale and placement-backend variants, so fingerprints
// are distinct and the consistent hash splits them across nodes — and the
// determinism proof covers both placement backends end to end.
func fleetReqs() []jobs.Request {
	reqs := []jobs.Request{
		{Experiments: []string{"table4"}},
		{Experiments: []string{"table4"}, Seed: 7},
		{Experiments: []string{"table4"}, Seed: 11},
		{Experiments: []string{"table4"}, Seed: 13},
		{Experiments: []string{"table4"}, Scale: 500},
		{Experiments: []string{"table4"}, Scale: 500, Seed: 7},
		{Experiments: []string{"table4"}, Placer: "analytical"},
		{Experiments: []string{"table4"}, Seed: 7, Placer: "analytical"},
		{Experiments: []string{"table1"}},
		{Experiments: []string{"table1"}, Seed: 7},
	}
	return reqs
}

// submitJSON posts a request and returns the accepted snapshot.
func submitJSON(t *testing.T, ts *httptest.Server, req jobs.Request) jobs.Info {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return postJob(t, ts, string(body))
}

// runFleet submits every request to entry (any node of the fleet), waits
// for completion through that same node, and returns the result
// fingerprints in request order.
func runFleet(t *testing.T, entry *httptest.Server, reqs []jobs.Request) []string {
	t.Helper()
	ids := make([]string, len(reqs))
	for i, req := range reqs {
		ids[i] = submitJSON(t, entry, req).ID
	}
	fps := make([]string, len(reqs))
	for i, id := range ids {
		info := pollDone(t, entry, id)
		if info.State != jobs.StateDone || info.Result == nil {
			t.Fatalf("request %d (job %s) ended %s: %s", i, id, info.State, info.Error)
		}
		fps[i] = string(info.Result.Fingerprint)
	}
	return fps
}

// TestFleetEquivalence is the determinism proof of the tentpole: the same
// request set produces byte-identical result fingerprints on a single
// node, on a two-node fleet with cold caches, and on a two-node fleet
// where the executing nodes warm themselves over the peer tier. Every
// submission and status poll goes through one entry node, so the
// forward/proxy path is on trial too.
func TestFleetEquivalence(t *testing.T) {
	reqs := fleetReqs()

	single := newFleet(t, 1, 64)
	baseline := runFleet(t, single[0].srv, reqs)
	for i, fp := range baseline {
		if len(fp) != 64 {
			t.Fatalf("baseline fingerprint %d = %q, want 64 hex chars", i, fp)
		}
	}

	// Two nodes, cold caches: submissions all enter through node 0; the
	// consistent hash must spread ownership (asserted below) and results
	// must not move.
	cold := newFleet(t, 2, 64)
	coldFPs := runFleet(t, cold[0].srv, reqs)
	owners := map[string]int{}
	for _, req := range reqs {
		owners[cold[0].ring.Owner(string(req.Fingerprint())).ID]++
	}
	if len(owners) < 2 {
		t.Fatalf("request mix all hashed to one owner (%v); pick seeds that split", owners)
	}
	for i := range reqs {
		if coldFPs[i] != baseline[i] {
			t.Errorf("request %d: cold 2-node fingerprint %s != single-node %s", i, coldFPs[i], baseline[i])
		}
	}

	// Two nodes, warm peer: node 1 has run everything locally (direct
	// manager submits bypass routing), node 0 is cold. Submitting through
	// node 1 routes each job to its owner; jobs owned by node 0 must fill
	// node 0's cache from node 1 over HTTP — and still fingerprint
	// identically.
	warm := newFleet(t, 2, 64)
	for i, req := range reqs {
		j, err := warm[1].mgr.Submit(req)
		if err != nil {
			t.Fatalf("pre-warming node 1 with request %d: %v", i, err)
		}
		select {
		case <-j.Done():
		case <-time.After(120 * time.Second):
			t.Fatalf("pre-warm job %s never finished", j.ID())
		}
	}
	warmFPs := runFleet(t, warm[1].srv, reqs)
	for i := range reqs {
		if warmFPs[i] != baseline[i] {
			t.Errorf("request %d: warm-peer fingerprint %s != single-node %s", i, warmFPs[i], baseline[i])
		}
	}
	if hits := warm[0].cache.Stats().PeerHits; hits == 0 {
		t.Error("node 0 executed its share of the warm run without a single peer-cache hit")
	}
}

// TestFleetForwardedOwnership pins the routing mechanics end to end: a
// job submitted to a non-owner comes back with the owner's node-prefixed
// ID, and every node can answer status and event-stream reads for it.
func TestFleetForwardedOwnership(t *testing.T) {
	fleet := newFleet(t, 2, 64)
	// Find a request owned by node 1 so a submit to node 0 must forward.
	var req jobs.Request
	found := false
	for seed := uint64(0); seed < 64 && !found; seed++ {
		req = jobs.Request{Experiments: []string{"table4"}, Seed: seed}
		if fleet[0].ring.Owner(string(req.Fingerprint())).ID == "n1" {
			found = true
		}
	}
	if !found {
		t.Fatal("no seed in [0,64) hashed to node 1")
	}
	info := submitJSON(t, fleet[0].srv, req)
	if !strings.HasPrefix(info.ID, "n1-job-") {
		t.Fatalf("forwarded job ID = %q, want n1's prefix", info.ID)
	}
	// Both nodes resolve the job: the owner locally, the other by proxy.
	for _, fn := range fleet {
		got := pollDone(t, fn.srv, info.ID)
		if got.State != jobs.StateDone {
			t.Fatalf("via %s: job %s ended %s", fn.id, info.ID, got.State)
		}
	}
	// The event stream proxies too, with the full dense history.
	resp, err := http.Get(fleet[0].srv.URL + "/v1/jobs/" + info.ID + "/events?from=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proxied events = %d, want 200", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	n := 0
	for dec.More() {
		var ev jobs.Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		if ev.Seq != n {
			t.Fatalf("proxied stream not dense at %d: %+v", n, ev)
		}
		n++
	}
	if n < 3 {
		t.Fatalf("proxied stream returned only %d events", n)
	}
}

// TestFleetPeerAuth pins the trust boundary: without the peer token,
// artifact fetches and forwarded submissions are refused.
func TestFleetPeerAuth(t *testing.T) {
	fleet := newFleet(t, 2, 64)
	// An unauthenticated artifact read is a 401 before any key lookup.
	resp, err := http.Get(fleet[0].srv.URL + "/v1/artifacts/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("tokenless artifact fetch = %d, want 401", resp.StatusCode)
	}
	// A forged forwarded submission (claims to be from a peer, lacks the
	// token) is refused rather than executed.
	req, err := http.NewRequest(http.MethodPost, fleet[0].srv.URL+"/v1/jobs", strings.NewReader(`{"experiments":["table4"]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(cluster.ForwardHeader, "1")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("forged forwarded submit = %d, want 401", resp.StatusCode)
	}
}

// TestFleetBackendIsolation pins the peer tier against cross-backend
// leakage: a node whose peer has run the same work under the other
// placement backend must fetch no block implementation over the network —
// the placer is in every block stage key, so the peer's block entries are
// simply foreign. Fold entries may cross: a fold reads no placer, so its
// artifact is honestly shared. It also pins that the two backends' jobs
// report different result fingerprints.
func TestFleetBackendIsolation(t *testing.T) {
	fetched := &kindTier{kinds: map[string]int{}}
	fleet := newFleetTiers(t, 2, 64, func(i int, tier pipeline.CacheTier) pipeline.CacheTier {
		if i != 0 {
			return tier
		}
		fetched.CacheTier = tier
		return fetched
	})
	force := jobs.Request{Experiments: []string{"table4"}}
	analytical := jobs.Request{Experiments: []string{"table4"}, Placer: "analytical"}

	// Node 1 runs the force job locally (direct manager submit bypasses
	// routing), fully warming its cache with force-keyed entries.
	jf, err := fleet[1].mgr.Submit(force)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-jf.Done():
	case <-time.After(120 * time.Second):
		t.Fatal("force warm-up job never finished")
	}
	if fleet[1].cache.Stats().Stores == 0 {
		t.Fatal("force job stored nothing; the isolation check would be vacuous")
	}

	// Node 0 runs the analytical job locally. Its cache is cold, so every
	// plan consults the peer tier — which holds only force block entries
	// and must contribute none of them.
	ja, err := fleet[0].mgr.Submit(analytical)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-ja.Done():
	case <-time.After(120 * time.Second):
		t.Fatal("analytical job never finished")
	}
	kinds := fetched.snapshot()
	t.Logf("peer fetches by kind: %v", kinds)
	for kind, n := range kinds {
		if kind != "fold" {
			t.Errorf("analytical job fetched %d %q entries from a force-warmed peer", n, kind)
		}
	}

	fi, ai := jf.Info(), ja.Info()
	if fi.State != jobs.StateDone || ai.State != jobs.StateDone {
		t.Fatalf("jobs ended %s/%s: %s %s", fi.State, ai.State, fi.Error, ai.Error)
	}
	if fi.Result.Fingerprint == ai.Result.Fingerprint {
		t.Error("force and analytical jobs produced the same result fingerprint")
	}
}

// kindTier wraps a peer tier and counts the codec kind of every entry it
// fetches, so a test can tell which artifact kinds crossed nodes.
type kindTier struct {
	pipeline.CacheTier
	mu    sync.Mutex
	kinds map[string]int
}

// Fetch forwards to the wrapped tier and records the fetched entry's kind,
// read from the wire header (see pipeline.EncodeEntry: magic, schema and
// codec version, then a u16 kind length and the kind).
func (k *kindTier) Fetch(key string) ([]byte, error) {
	data, err := k.CacheTier.Fetch(key)
	if err != nil {
		return data, err
	}
	kind := "malformed"
	if len(data) >= 14 {
		if n := int(binary.LittleEndian.Uint16(data[12:14])); len(data) >= 14+n {
			kind = string(data[14 : 14+n])
		}
	}
	k.mu.Lock()
	k.kinds[kind]++
	k.mu.Unlock()
	return data, nil
}

// snapshot copies the counts.
func (k *kindTier) snapshot() map[string]int {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make(map[string]int, len(k.kinds))
	for kind, n := range k.kinds {
		out[kind] = n
	}
	return out
}
