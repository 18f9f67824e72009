// Package server is the HTTP transport of the fold3dd daemon: a thin,
// goroutine-free layer that maps the REST surface onto a jobs.Manager —
// and, when the daemon runs as a fleet member, routes work to its owner
// node through a cluster.Router.
//
//	POST /v1/jobs            enqueue a jobs.Request        → 202 + job info
//	GET  /v1/jobs            list jobs in submission order → 200 + info array
//	GET  /v1/jobs/{id}       job status and result         → 200 + job info
//	GET  /v1/jobs/{id}/events  live NDJSON event stream    → 200 + one JSON
//	                           object per line, streamed until terminal
//	POST /v1/batches         enqueue many requests at once → 202 + batch info
//	GET  /v1/batches/{id}    batch status                  → 200 + batch info
//	GET  /v1/batches/{id}/events  multiplexed NDJSON of every member job
//	GET  /v1/artifacts/{fp}  cache wire entry (peers only) → 200 + octet-stream
//	GET  /metrics            service counters              → Prometheus text
//	GET  /healthz            readiness                     → 200, 503 draining
//
// Every /v1 error is one envelope, {"error":{"code":"...","message":"..."}},
// with the status and code chosen from a single sentinel-mapping table:
// errs.ErrBadRequest → 400 bad_request, unknown job/batch/artifact → 404
// not_found, jobs.ErrQuotaExceeded → 429 quota_exceeded (+ Retry-After),
// jobs.ErrQueueFull → 503 queue_full (+ Retry-After), jobs.ErrShutdown →
// 503 shutdown (+ Retry-After), bad peer token → 401 unauthorized,
// cluster.ErrPeerUnreachable → 502 peer_unreachable.
//
// Fleet routing: POSTs are fingerprinted (jobs.Request.Fingerprint /
// jobs.BatchFingerprint) and proxied to the consistent-hash owner node
// unless this node owns the key or the request was already forwarded once
// (cluster.ForwardHeader breaks loops). GETs for a foreign "<node>-" ID
// prefix proxy to the minting node. /v1/artifacts serves the node-local
// cache to peers, gated by the fleet token.
//
// The package spawns no goroutines: streaming handlers block on the job's
// notify channel and the request context, so the daemon's only long-lived
// goroutines stay inside the jobs scheduler.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"

	"fold3d/internal/cluster"
	"fold3d/internal/errs"
	"fold3d/internal/jobs"
)

// errPeerAuth reports a peer-gated request without the fleet token.
var errPeerAuth = errors.New("server: missing or wrong peer token")

// errUnknownArtifact reports an artifact key absent from the local cache.
var errUnknownArtifact = errors.New("server: unknown artifact")

// Options configures a Server.
type Options struct {
	// Manager executes the jobs. Required.
	Manager *jobs.Manager
	// Router, when non-nil, makes this node a fleet member: POSTs proxy to
	// their consistent-hash owner, foreign-ID GETs proxy to their minting
	// node, and /v1/artifacts is token-gated. Nil serves single-node.
	Router *cluster.Router
	// Pprof mounts the net/http/pprof profiling handlers under
	// /debug/pprof/. Off by default: the endpoints expose heap and CPU
	// internals and should only be enabled on trusted interfaces.
	Pprof bool
}

// Server routes the fold3dd HTTP API onto a jobs.Manager.
type Server struct {
	mgr    *jobs.Manager
	router *cluster.Router // nil when single-node
	mux    *http.ServeMux
}

// New builds a single-node server for a manager. The caller retains
// ownership of the manager and its lifecycle (the server never closes it).
func New(mgr *jobs.Manager) *Server {
	return NewWithOptions(Options{Manager: mgr})
}

// NewWithOptions builds the server, fleet-aware when opts.Router is set.
func NewWithOptions(opts Options) *Server {
	s := &Server{mgr: opts.Manager, router: opts.Router, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("POST /v1/batches", s.handleSubmitBatch)
	s.mux.HandleFunc("GET /v1/batches/{id}", s.handleBatchStatus)
	s.mux.HandleFunc("GET /v1/batches/{id}/events", s.handleBatchEvents)
	s.mux.HandleFunc("GET /v1/artifacts/{key}", s.handleArtifact)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	if opts.Pprof {
		// Explicit registration: the daemon serves its own mux, never
		// http.DefaultServeMux, so the pprof import's init registration
		// alone would expose nothing. Patterns are method-less because
		// /debug/pprof/symbol accepts both GET and POST.
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// errorClass is one row of the sentinel→HTTP mapping table: the single
// place where queue errors become statuses, codes and Retry-After hints.
type errorClass struct {
	sentinel   error
	status     int
	code       string
	retryAfter int // seconds; 0 omits the header
}

// errorTable maps every /v1 error sentinel, first match wins. ErrBadRequest
// is matched last among 4xx classes so that dual-wrapped validation errors
// (bad request + unknown experiment) stay 400 while the more specific
// lookup/admission sentinels claim their own statuses first.
var errorTable = []errorClass{
	{jobs.ErrUnknownJob, http.StatusNotFound, "not_found", 0},
	{jobs.ErrUnknownBatch, http.StatusNotFound, "not_found", 0},
	{errUnknownArtifact, http.StatusNotFound, "not_found", 0},
	{jobs.ErrQuotaExceeded, http.StatusTooManyRequests, "quota_exceeded", 1},
	{jobs.ErrQueueFull, http.StatusServiceUnavailable, "queue_full", 1},
	{jobs.ErrShutdown, http.StatusServiceUnavailable, "shutdown", 5},
	{errPeerAuth, http.StatusUnauthorized, "unauthorized", 0},
	{cluster.ErrPeerUnreachable, http.StatusBadGateway, "peer_unreachable", 0},
	{errs.ErrBadRequest, http.StatusBadRequest, "bad_request", 0},
}

// classify resolves an error against the table; unmatched errors are the
// 500 internal class.
func classify(err error) errorClass {
	for _, c := range errorTable {
		if errors.Is(err, c.sentinel) {
			return c
		}
	}
	return errorClass{status: http.StatusInternalServerError, code: "internal"}
}

// ErrorBody is the unified /v1 error envelope.
type ErrorBody struct {
	// Error carries the machine-readable code and human-readable message.
	Error ErrorDetail `json:"error"`
}

// ErrorDetail is the payload of the error envelope.
type ErrorDetail struct {
	// Code is the stable machine-readable error class (e.g. "queue_full").
	Code string `json:"code"`
	// Message is the human-readable error text.
	Message string `json:"message"`
}

// writeError emits the error envelope with the sentinel-mapped status and,
// for backpressure classes, a Retry-After hint.
func writeError(w http.ResponseWriter, err error) {
	c := classify(err)
	w.Header().Set("Content-Type", "application/json")
	if c.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(c.retryAfter))
	}
	w.WriteHeader(c.status)
	_ = json.NewEncoder(w).Encode(ErrorBody{Error: ErrorDetail{Code: c.code, Message: err.Error()}})
}

// writeJSON emits one JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// maxBodyBytes bounds the request body; experiment requests are a few
// hundred bytes of knobs and a batch a few hundred of those, so 1 MiB is
// generous.
const maxBodyBytes = 1 << 20

// readBody consumes the bounded request body. POST handlers read it fully
// before decoding so the same bytes can be proxied verbatim to the owner
// node when the fingerprint routes elsewhere.
func readBody(r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		return nil, fmt.Errorf("server: %w: reading request body: %v", errs.ErrBadRequest, err)
	}
	return body, nil
}

// decodeStrict decodes JSON rejecting unknown fields.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("server: %w: decoding request body: %v", errs.ErrBadRequest, err)
	}
	return nil
}

// forwardPost proxies a POST to the owner of key when the ring places it
// on another node. Returns true when the response was (or failed being)
// written here; false means the caller should handle the request locally —
// either this node owns the key or the request already hopped once.
func (s *Server) forwardPost(w http.ResponseWriter, r *http.Request, key string, body []byte) bool {
	if s.router == nil || s.router.Forwarded(r) {
		return false
	}
	owner := s.router.Ring().Owner(key)
	if owner.ID == s.router.Ring().Self() {
		return false
	}
	if err := s.router.Forward(w, r, owner, body); err != nil {
		writeError(w, err)
	}
	return true
}

// forwardGetByID proxies a GET whose ID was minted by another fleet node
// (by its "<node>-" prefix). Same contract as forwardPost.
func (s *Server) forwardGetByID(w http.ResponseWriter, r *http.Request, id string) bool {
	if s.router == nil || s.router.Forwarded(r) {
		return false
	}
	owner, ok := s.router.OwnerOfID(id)
	if !ok || owner.ID == s.router.Ring().Self() {
		return false
	}
	if err := s.router.Forward(w, r, owner, nil); err != nil {
		writeError(w, err)
	}
	return true
}

// authorizePeer guards forwarded requests and the artifact endpoint with
// the fleet token when one is configured.
func (s *Server) authorizePeer(r *http.Request) error {
	if s.router != nil && !s.router.Authorize(r) {
		return errPeerAuth
	}
	return nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.router != nil && s.router.Forwarded(r) {
		if err := s.authorizePeer(r); err != nil {
			writeError(w, err)
			return
		}
	}
	body, err := readBody(r)
	if err != nil {
		writeError(w, err)
		return
	}
	var req jobs.Request
	if err := decodeStrict(body, &req); err != nil {
		writeError(w, err)
		return
	}
	if s.forwardPost(w, r, req.Fingerprint(), body) {
		return
	}
	j, err := s.mgr.Submit(req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.Info())
}

// BatchRequest is the body of POST /v1/batches: one submission carrying
// many job configurations, admitted atomically.
type BatchRequest struct {
	// Jobs lists the member requests in order; at least one is required.
	Jobs []jobs.Request `json:"jobs"`
}

func (s *Server) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	if s.router != nil && s.router.Forwarded(r) {
		if err := s.authorizePeer(r); err != nil {
			writeError(w, err)
			return
		}
	}
	body, err := readBody(r)
	if err != nil {
		writeError(w, err)
		return
	}
	var req BatchRequest
	if err := decodeStrict(body, &req); err != nil {
		writeError(w, err)
		return
	}
	if s.forwardPost(w, r, jobs.BatchFingerprint(req.Jobs), body) {
		return
	}
	b, err := s.mgr.SubmitBatch(req.Jobs)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, b.Info())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.mgr.Infos())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, err := s.mgr.Get(id)
	if err != nil {
		if s.forwardGetByID(w, r, id) {
			return
		}
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, j.Info())
}

func (s *Server) handleBatchStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	b, err := s.mgr.GetBatch(id)
	if err != nil {
		if s.forwardGetByID(w, r, id) {
			return
		}
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, b.Info())
}

// parseFrom reads the ?from= resume cursor (default 0).
func parseFrom(r *http.Request) (int, error) {
	q := r.URL.Query().Get("from")
	if q == "" {
		return 0, nil
	}
	from, err := strconv.Atoi(q)
	if err != nil || from < 0 {
		return 0, fmt.Errorf("server: %w: from=%q is not a non-negative integer", errs.ErrBadRequest, q)
	}
	return from, nil
}

// handleEvents streams the job's events as NDJSON: first a replay of
// everything recorded so far (from ?from=N onward, default 0), then a live
// follow until the job reaches a terminal state or the client goes away.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, err := s.mgr.Get(id)
	if err != nil {
		if s.forwardGetByID(w, r, id) {
			return
		}
		writeError(w, err)
		return
	}
	from, err := parseFrom(r)
	if err != nil {
		writeError(w, err)
		return
	}
	streamNDJSON(w, r, from, func(from int) (int, <-chan struct{}, bool, error) {
		events, more, terminal := j.EventsSince(from)
		return len(events), more, terminal, encodeAll(w, events)
	})
}

// handleBatchEvents multiplexes every member job's events into one NDJSON
// stream, tagged with the job ID, under a dense batch-wide sequence with
// the same ?from= resume contract as per-job streams.
func (s *Server) handleBatchEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	b, err := s.mgr.GetBatch(id)
	if err != nil {
		if s.forwardGetByID(w, r, id) {
			return
		}
		writeError(w, err)
		return
	}
	from, err := parseFrom(r)
	if err != nil {
		writeError(w, err)
		return
	}
	streamNDJSON(w, r, from, func(from int) (int, <-chan struct{}, bool, error) {
		events, more, terminal := b.EventsSince(from)
		return len(events), more, terminal, encodeAll(w, events)
	})
}

// encodeAll writes one JSON line per event.
func encodeAll[E any](w io.Writer, events []E) error {
	enc := json.NewEncoder(w)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return err // client gone
		}
	}
	return nil
}

// streamNDJSON is the shared replay-then-follow loop: fetch emits events
// from the cursor and reports how many it wrote, the follow channel, and
// terminality; the loop flushes and parks on the channel until the stream
// ends or the client disconnects.
func streamNDJSON(w http.ResponseWriter, r *http.Request, from int, fetch func(from int) (int, <-chan struct{}, bool, error)) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	for {
		n, more, terminal, err := fetch(from)
		if err != nil {
			return // client gone
		}
		from += n
		if flusher != nil {
			flusher.Flush()
		}
		if terminal {
			return
		}
		select {
		case <-more:
		case <-r.Context().Done():
			return
		}
	}
}

// handleArtifact serves the raw wire entry of a cache key to fleet peers
// (the network tier's GET). The bytes go out exactly as the disk spill
// stores them — versioned, checksummed — so the fetching node validates
// and a corrupt transfer is its miss, not our error.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	if err := s.authorizePeer(r); err != nil {
		writeError(w, err)
		return
	}
	key := r.PathValue("key")
	entry, ok := s.mgr.CacheEntry(key)
	if !ok {
		writeError(w, fmt.Errorf("%w: %q", errUnknownArtifact, key))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(entry)))
	_, _ = w.Write(entry)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.mgr.Closed() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

// handleMetrics renders the manager snapshot in the Prometheus text
// exposition format. Output order is deterministic: fixed counter layout,
// stages sorted by name (jobs.Metrics guarantees the sort).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	writeMetrics(w, s.mgr.Metrics())
}

// fnum formats a float the way Prometheus text expects (shortest exact
// decimal, no exponent surprises for the bucket bounds in use).
func fnum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// writeMetrics renders one snapshot. Split from the handler so tests and
// the daemon's shutdown summary can render without an HTTP round trip.
func writeMetrics(w io.Writer, mt jobs.Metrics) {
	var b strings.Builder

	b.WriteString("# HELP fold3dd_jobs_gauge Jobs currently in a non-terminal state.\n")
	b.WriteString("# TYPE fold3dd_jobs_gauge gauge\n")
	fmt.Fprintf(&b, "fold3dd_jobs_gauge{state=\"queued\"} %d\n", mt.Queued)
	fmt.Fprintf(&b, "fold3dd_jobs_gauge{state=\"running\"} %d\n", mt.Running)

	b.WriteString("# HELP fold3dd_jobs_total Jobs that reached each terminal state.\n")
	b.WriteString("# TYPE fold3dd_jobs_total counter\n")
	fmt.Fprintf(&b, "fold3dd_jobs_total{state=\"done\"} %d\n", mt.Done)
	fmt.Fprintf(&b, "fold3dd_jobs_total{state=\"failed\"} %d\n", mt.Failed)
	fmt.Fprintf(&b, "fold3dd_jobs_total{state=\"canceled\"} %d\n", mt.Canceled)

	b.WriteString("# HELP fold3dd_jobs_reused_total Done jobs answered with an earlier identical job's result, without running.\n")
	b.WriteString("# TYPE fold3dd_jobs_reused_total counter\n")
	fmt.Fprintf(&b, "fold3dd_jobs_reused_total %d\n", mt.Reused)

	b.WriteString("# HELP fold3dd_jobs_submitted_total Jobs accepted by Submit.\n")
	b.WriteString("# TYPE fold3dd_jobs_submitted_total counter\n")
	fmt.Fprintf(&b, "fold3dd_jobs_submitted_total %d\n", mt.Submitted)

	b.WriteString("# HELP fold3dd_cache_lookups_total Artifact cache lookups by outcome.\n")
	b.WriteString("# TYPE fold3dd_cache_lookups_total counter\n")
	fmt.Fprintf(&b, "fold3dd_cache_lookups_total{outcome=\"hit\"} %d\n", mt.Cache.Hits)
	fmt.Fprintf(&b, "fold3dd_cache_lookups_total{outcome=\"disk_hit\"} %d\n", mt.Cache.DiskHits)
	fmt.Fprintf(&b, "fold3dd_cache_lookups_total{outcome=\"peer_hit\"} %d\n", mt.Cache.PeerHits)
	fmt.Fprintf(&b, "fold3dd_cache_lookups_total{outcome=\"miss\"} %d\n", mt.Cache.Misses)

	b.WriteString("# HELP fold3dd_cache_stores_total Artifacts written into the cache.\n")
	b.WriteString("# TYPE fold3dd_cache_stores_total counter\n")
	fmt.Fprintf(&b, "fold3dd_cache_stores_total %d\n", mt.Cache.Stores)

	b.WriteString("# HELP fold3dd_cache_corrupt_total Tier entries rejected by validation.\n")
	b.WriteString("# TYPE fold3dd_cache_corrupt_total counter\n")
	fmt.Fprintf(&b, "fold3dd_cache_corrupt_total %d\n", mt.Cache.Corrupt)

	b.WriteString("# HELP fold3dd_cache_entries In-memory cache entries.\n")
	b.WriteString("# TYPE fold3dd_cache_entries gauge\n")
	fmt.Fprintf(&b, "fold3dd_cache_entries %d\n", mt.Cache.Entries)

	b.WriteString("# HELP fold3dd_cache_hit_ratio Fraction of lookups served from the cache.\n")
	b.WriteString("# TYPE fold3dd_cache_hit_ratio gauge\n")
	fmt.Fprintf(&b, "fold3dd_cache_hit_ratio %s\n", fnum(mt.Cache.HitRatio()))

	b.WriteString("# HELP fold3dd_stage_latency_seconds Flow stage latency by stage name.\n")
	b.WriteString("# TYPE fold3dd_stage_latency_seconds histogram\n")
	for _, sl := range mt.Stages {
		for i, bound := range sl.Bounds {
			fmt.Fprintf(&b, "fold3dd_stage_latency_seconds_bucket{stage=%q,le=%q} %d\n",
				sl.Stage, fnum(bound), sl.CumCounts[i])
		}
		fmt.Fprintf(&b, "fold3dd_stage_latency_seconds_bucket{stage=%q,le=\"+Inf\"} %d\n", sl.Stage, sl.Count)
		fmt.Fprintf(&b, "fold3dd_stage_latency_seconds_sum{stage=%q} %s\n", sl.Stage, fnum(sl.SumSeconds))
		fmt.Fprintf(&b, "fold3dd_stage_latency_seconds_count{stage=%q} %d\n", sl.Stage, sl.Count)
	}

	_, _ = io.WriteString(w, b.String())
}
