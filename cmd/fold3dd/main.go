// Command fold3dd serves the fold3d experiment flow over HTTP: clients
// enqueue experiment runs as jobs, poll or stream their progress, and
// scrape service metrics. One process owns one artifact cache, so every
// job — concurrent or sequential — warms the next.
//
// Usage:
//
//	fold3dd                            # serve on :8080
//	fold3dd -addr 127.0.0.1:0          # any free port (printed on startup)
//	fold3dd -jobs 4 -queue 128         # four concurrent jobs, deeper queue
//	fold3dd -cachedir ./cache          # spill block artifacts to disk
//	fold3dd -cachestats                # print cache counters on exit
//	fold3dd -pprof                     # expose /debug/pprof/ profiling
//
// -pprof mounts the standard net/http/pprof handlers (heap, goroutine,
// CPU profile, trace, ...) under /debug/pprof/ on the same listener. It
// is off by default because the endpoints expose process internals;
// enable it only on trusted or loopback interfaces, e.g.
//
//	fold3dd -addr 127.0.0.1:8080 -pprof
//	go tool pprof http://127.0.0.1:8080/debug/pprof/heap
//
// Fleet mode: give every node the same full peer list (including itself)
// and a unique -node-id; jobs route to their owner by consistent hash of
// the request fingerprint, and each node's artifact cache can fill from
// its peers over HTTP:
//
//	fold3dd -addr :8080 -node-id a -peers 'a=http://h1:8080,b=http://h2:8080'
//	fold3dd -addr :8080 -node-id b -peers 'a=http://h1:8080,b=http://h2:8080'
//
// A job request may name a placement backend via its "placer" field
// ({"experiments":["table2"],"placer":"analytical"}); an unknown name is
// rejected with the 400 envelope, and requests differing only in placer
// route independently (distinct ring owners, isolated cache identities).
//
// A job request may also carry a "thermal" object to turn on in-loop
// thermal planning — the "will this folding melt" scenario:
// ({"experiments":["thermal"],"thermal":{"tmax_c":85,"vias":200}}).
// The flows solve block temperature fields and insert thermal vias, and
// the thermal report marks styles still over tmax_c as melting. An
// impossible budget (negative, NaN, above 1000 C) is rejected with the
// 400 envelope; requests differing only in their thermal spec route
// independently, and requests without one keep their historical
// fingerprints.
//
// API: POST /v1/jobs, POST /v1/batches, GET /v1/jobs, GET /v1/jobs/{id},
// GET /v1/jobs/{id}/events, GET /v1/batches/{id},
// GET /v1/batches/{id}/events (NDJSON), GET /v1/artifacts/{key} (peers),
// GET /metrics, GET /healthz — see the README's Serving section for curl
// examples.
//
// SIGINT/SIGTERM shut the daemon down gracefully: the queue closes,
// in-flight jobs finish as canceled, event streams terminate, and the
// listener drains before the process exits. A second signal kills the
// process immediately (signal.NotifyContext unregisters after the first).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fold3d/internal/cluster"
	"fold3d/internal/jobs"
	"fold3d/internal/pipeline"
	"fold3d/internal/server"
)

// Connection timeouts of the daemon's HTTP server. readHeaderTimeout bounds
// how long a client may take to send its request headers, so a slowloris
// client trickling a header cannot hold a connection open; idleTimeout
// closes keep-alive connections nobody reuses. There is deliberately no
// ReadTimeout or WriteTimeout: an NDJSON event stream lives as long as its
// job.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newServer wraps h in the daemon's http.Server.
func newServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// main delegates to run so defers fire before the process exits.
func main() {
	os.Exit(run(os.Args[1:], nil))
}

// run is the testable daemon body. args are the command-line arguments
// after the program name; ready, when non-nil, is called with the bound
// listen address once the daemon accepts connections (the smoke test uses
// it to discover a :0 port).
func run(args []string, ready func(addr string)) int {
	fs := flag.NewFlagSet("fold3dd", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", ":8080", "listen address (host:port; port 0 picks a free one)")
		jobWorkers = fs.Int("jobs", 2, "number of concurrently running jobs")
		queueDepth = fs.Int("queue", 64, "number of jobs allowed to wait in the queue")
		cachedir   = fs.String("cachedir", "", "spill the block-artifact cache to this directory (warm-starts later runs)")
		cachestats = fs.Bool("cachestats", false, "print artifact-cache hit/miss counters to stderr on exit")
		drain      = fs.Duration("drain", 30*time.Second, "graceful-shutdown budget for canceling jobs and closing streams")
		nodeID     = fs.String("node-id", "", "this node's ID in the fleet (lowercase [a-z0-9_]+; required with -peers)")
		peers      = fs.String("peers", "", "full fleet peer list as 'id=url,id=url,...' including this node; same value on every node")
		peerToken  = fs.String("peer-token", "", "shared secret for node-to-node requests (forwarded jobs, artifact fetches)")
		quota      = fs.Int("tenant-quota", 0, "max queued jobs per tenant (0 = no per-tenant limit)")
		pprofOn    = fs.Bool("pprof", false, "serve net/http/pprof profiling endpoints under /debug/pprof/ (trusted interfaces only)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// Fleet wiring: the router forwards jobs to their consistent-hash owner
	// and serves as a read-through peer tier for the artifact cache.
	var router *cluster.Router
	cacheOpts := pipeline.CacheOptions{Dir: *cachedir}
	if *peers != "" {
		nodes, err := cluster.ParsePeers(*peers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fold3dd: -peers: %v\n", err)
			return 2
		}
		ring, err := cluster.New(*nodeID, nodes)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fold3dd: %v\n", err)
			return 2
		}
		router = cluster.NewRouter(ring, *peerToken)
		cacheOpts.Tiers = []pipeline.CacheTier{router.Tier()}
	} else if *nodeID != "" {
		fmt.Fprintln(os.Stderr, "fold3dd: -node-id requires -peers")
		return 2
	}

	cache := pipeline.NewCache(cacheOpts)
	mgr := jobs.NewManager(jobs.Options{
		Workers:     *jobWorkers,
		QueueDepth:  *queueDepth,
		Cache:       cache,
		NodeID:      *nodeID,
		TenantQuota: *quota,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fold3dd: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "fold3dd: serving on %s\n", ln.Addr())
	if ready != nil {
		ready(ln.Addr().String())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := newServer(server.NewWithOptions(server.Options{Manager: mgr, Router: router, Pprof: *pprofOn}))
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }() // sanctioned: the accept loop of the server exemption

	code := 0
	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "fold3dd: shutting down")
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "fold3dd: serve: %v\n", err)
		code = 1
	}

	// Drain order matters: close the manager first so every job reaches a
	// terminal state and event streams end, then shut the listener down so
	// those final responses flush. Both share one drain budget.
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := mgr.Close(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "fold3dd: %v\n", err)
		code = 1
	}
	if err := srv.Shutdown(dctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "fold3dd: shutdown: %v\n", err)
		code = 1
	}
	if *cachestats {
		fmt.Fprintf(os.Stderr, "fold3dd: cache %s\n", mgr.CacheStats())
	}
	return code
}
