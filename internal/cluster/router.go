package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"
)

// TokenHeader carries the shared fleet secret on every peer-to-peer
// request (proxied jobs, artifact fetches). Nodes started with -peer-token
// reject peer requests without the matching value.
const TokenHeader = "X-Fold3d-Peer-Token"

// ForwardHeader marks a request as already proxied once, carrying the
// forwarding node's ID. A node receiving it always handles the request
// locally — even if its own ring disagrees about the owner — so a fleet
// misconfiguration degrades to one extra hop, never a proxy loop.
const ForwardHeader = "X-Fold3d-Forwarded"

// ErrPeerUnreachable reports that the owner node could not be reached when
// proxying a request. The server maps it to 502.
var ErrPeerUnreachable = errors.New("cluster: peer unreachable")

// maxArtifactBytes bounds a peer artifact response. Measured over the spill
// of `fold3d -exp all`, block entries reach 0.29 MB at scale 1000 (median
// 39 KB) and 0.83 MB at scale 300 (median 99 KB), and fold entries stay
// under 3 KB. Entry size grows as one over the scale, so 64 MiB leaves
// generous headroom while still bounding a misbehaving peer.
const maxArtifactBytes = 64 << 20

// Router proxies requests to their owner node and fetches cache entries
// from peers. One Router serves a node for its lifetime; it is safe for
// concurrent use.
type Router struct {
	ring  *Ring
	token string
	// proxy carries forwarded client requests; no timeout, because a
	// forwarded GET /events legitimately streams for the life of a job.
	// Cancellation flows from the inbound request's context instead.
	proxy *http.Client
	// fetch carries artifact fetches, which are one bounded read.
	fetch *http.Client
}

// NewRouter builds a Router over the ring. token may be empty (open
// fleet, e.g. tests on localhost).
func NewRouter(ring *Ring, token string) *Router {
	return &Router{
		ring:  ring,
		token: token,
		proxy: &http.Client{},
		fetch: &http.Client{Timeout: 30 * time.Second},
	}
}

// Ring returns the ring the router routes over.
func (rt *Router) Ring() *Ring { return rt.ring }

// Authorize reports whether a peer request carries the fleet token. With
// no token configured every request passes.
func (rt *Router) Authorize(r *http.Request) bool {
	return rt.token == "" || r.Header.Get(TokenHeader) == rt.token
}

// Forwarded reports whether the request was already proxied by a peer.
func (rt *Router) Forwarded(r *http.Request) bool {
	return r.Header.Get(ForwardHeader) != ""
}

// OwnerOfID resolves the node that minted a fleet-scoped job or batch ID
// by its "<node>-" prefix. IDs without a known node prefix (single-node
// legacy IDs like "job-000001") return ok=false.
func (rt *Router) OwnerOfID(id string) (Node, bool) {
	prefix, _, ok := strings.Cut(id, "-")
	if !ok {
		return Node{}, false
	}
	return rt.ring.NodeByID(prefix)
}

// Forward proxies the inbound request to node and streams the response
// back. body is the already-read request body (the caller consumed it to
// compute the routing fingerprint); nil for GETs. Returns an error
// wrapping ErrPeerUnreachable if the node cannot be reached; once the
// upstream has responded, the response — whatever its status — is relayed
// verbatim and Forward returns nil.
func (rt *Router) Forward(w http.ResponseWriter, r *http.Request, node Node, body []byte) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	out, err := http.NewRequestWithContext(r.Context(), r.Method, node.URL+r.URL.RequestURI(), rd)
	if err != nil {
		return fmt.Errorf("cluster: forward to %s: %v: %w", node.ID, err, ErrPeerUnreachable)
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		out.Header.Set("Content-Type", ct)
	}
	out.Header.Set(ForwardHeader, rt.ring.Self())
	if rt.token != "" {
		out.Header.Set(TokenHeader, rt.token)
	}
	resp, err := rt.proxy.Do(out)
	if err != nil {
		return fmt.Errorf("cluster: forward to %s: %v: %w", node.ID, err, ErrPeerUnreachable)
	}
	defer func() { _ = resp.Body.Close() }()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	// Relay with per-chunk flushing so a proxied NDJSON event stream
	// reaches the client as events happen, not when the job ends.
	fw := io.Writer(w)
	if f, ok := w.(http.Flusher); ok {
		fw = flushWriter{w: w, f: f}
	}
	_, _ = io.Copy(fw, resp.Body)
	return nil
}

// flushWriter flushes after every write so proxied streams stay live.
type flushWriter struct {
	w io.Writer
	f http.Flusher
}

func (fw flushWriter) Write(p []byte) (int, error) {
	n, err := fw.w.Write(p)
	fw.f.Flush()
	return n, err
}

// Tier returns the router's network cache tier: a read-only
// pipeline.CacheTier that fetches wire entries from peers over
// GET /v1/artifacts/{key}. Entries propagate by fetch, never by push.
func (rt *Router) Tier() *PeerTier { return &PeerTier{rt: rt} }

// PeerTier fetches cache entries from fleet peers. It implements
// pipeline.CacheTier: Fetch walks the key's ring preference order (the
// artifact-key owner first, then successors — jobs route by request
// fingerprint, so a block artifact may live on any node that ran a job
// needing it), skipping self; the first 200 wins. Any failure — network,
// 404, 503 — is simply "nothing at this tier", and a corrupt body is
// caught downstream by the cache's checksum validation and counted as a
// miss, exactly like a corrupt disk-spill file.
type PeerTier struct {
	rt *Router
}

// Fetch retrieves the wire entry for key from the first peer that has it.
func (t *PeerTier) Fetch(key string) ([]byte, error) {
	for _, node := range t.rt.ring.Sequence(key) {
		if node.ID == t.rt.ring.Self() {
			continue
		}
		entry, err := t.fetchFrom(node, key)
		if err == nil {
			return entry, nil
		}
	}
	return nil, fmt.Errorf("cluster: artifact %s: %w", key, os.ErrNotExist)
}

func (t *PeerTier) fetchFrom(node Node, key string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, node.URL+"/v1/artifacts/"+key, nil)
	if err != nil {
		return nil, err
	}
	if t.rt.token != "" {
		req.Header.Set(TokenHeader, t.rt.token)
	}
	resp, err := t.rt.fetch.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: artifact %s on %s: status %d: %w",
			key, node.ID, resp.StatusCode, os.ErrNotExist)
	}
	return io.ReadAll(io.LimitReader(resp.Body, maxArtifactBytes))
}
