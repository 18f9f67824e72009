package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"fold3d/internal/jobs"
	"fold3d/internal/pool"
	"fold3d/pkg/fold3d"
)

// The serve-fleet shape: two fold3dd nodes running one job at a time each,
// driven by serveClients closed-loop clients that post every request to
// node a, so the consistent-hash ring forwards about half of them to b.
const (
	serveClients = 2
	// serveWarmupSeeds is how many job seeds of every experiment each
	// set-up runs and discards.
	serveWarmupSeeds = 3
	// A measured run offers serveRate requests per second of the run, the
	// fleet's throughput on the reference host (two CPUs), so that it lasts
	// about the run's seconds there while every run of a given length does
	// the same work. It offers at least minServeJobs, enough for ten
	// samples beyond the 90th percentile.
	serveRate    = 45
	minServeJobs = 120
	// serveProbeJobs is the size of the serve pass of a traced run on the
	// CLI workloads.
	serveProbeJobs = 120
	peerToken      = "fold3dbench"
)

// node is one fold3dd child process.
type node struct {
	id, url string
	cmd     *exec.Cmd
	stderr  bytes.Buffer
}

// fleet is a running two-node fold3dd fleet and the client that drives it.
type fleet struct {
	nodes  []*node
	http   *http.Client
	client *fold3d.Client
}

// startFleet starts both nodes on free loopback ports with the full peer
// list and waits until each answers /healthz.
func startFleet(ctx context.Context, e *env) (*fleet, error) {
	addrs, err := freeAddrs(2)
	if err != nil {
		return nil, err
	}
	ids := []string{"a", "b"}
	peers := make([]string, len(ids))
	for i, id := range ids {
		peers[i] = id + "=http://" + addrs[i]
	}
	f := &fleet{http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serveClients}}}
	for i, id := range ids {
		n := &node{id: id, url: "http://" + addrs[i]}
		n.cmd = exec.CommandContext(ctx, e.fold3dd(), "-addr", addrs[i], "-node-id", id,
			"-peers", strings.Join(peers, ","), "-peer-token", peerToken, "-jobs", "1", "-drain", "5s")
		n.cmd.Stderr = &n.stderr
		if err := n.cmd.Start(); err != nil {
			_, _ = f.stop()
			return nil, fmt.Errorf("starting fold3dd %s: %w", id, err)
		}
		f.nodes = append(f.nodes, n)
	}
	for _, n := range f.nodes {
		if err := f.waitHealthy(ctx, n); err != nil {
			_, _ = f.stop()
			return nil, err
		}
	}
	f.client = &fold3d.Client{BaseURL: f.nodes[0].url, HTTPClient: f.http}
	return f, nil
}

// freeAddrs returns n loopback addresses whose ports were free a moment
// ago.
func freeAddrs(n int) ([]string, error) {
	var addrs []string
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			_ = ln.Close() // only reserved the port while choosing
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// waitHealthy polls the node's /healthz until it answers 200.
func (f *fleet) waitHealthy(ctx context.Context, n *node) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.url+"/healthz", nil)
		if err != nil {
			return err
		}
		if resp, err := f.http.Do(req); err == nil {
			_ = resp.Body.Close() // status is all we need
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
	return fmt.Errorf("fold3dd %s did not become healthy: %s", n.id, lastLine(n.stderr.String()))
}

// stop shuts every node down with SIGTERM, waits for it to exit, and
// returns the largest peak resident set among them.
func (f *fleet) stop() (float64, error) {
	var rss float64
	var first error
	for _, n := range f.nodes {
		err := n.cmd.Process.Signal(syscall.SIGTERM)
		if werr := n.cmd.Wait(); err == nil && werr != nil {
			err = fmt.Errorf("fold3dd %s: %w: %s", n.id, werr, lastLine(n.stderr.String()))
		}
		if first == nil {
			first = err
		}
		if r := peakRSSMB(n.cmd.ProcessState); r > rss {
			rss = r
		}
	}
	f.http.CloseIdleConnections()
	return rss, first
}

// sample is one serve job as its client saw it. Times are seconds since
// the loop started: POST sent, POST answered, "running" event received,
// terminal event received.
type sample struct {
	req                          request
	id                           string
	post, accepted, running, end float64
	fingerprint                  string
	err                          error
}

// errTerminal stops an event stream once the terminal event arrived, so
// the client does not wait on the server closing it.
var errTerminal = errors.New("terminal event")

// job posts one request to node a and follows its events to the end.
func (f *fleet) job(ctx context.Context, q request, start time.Time) sample {
	s := sample{req: q}
	since := func() float64 { return time.Since(start).Seconds() }
	s.post = since()
	info, err := f.client.Submit(ctx, fold3d.JobRequest{Experiments: []string{q.exp}, Seed: q.seed, Workers: 1})
	s.accepted = since()
	if err != nil {
		s.err = fmt.Errorf("submitting %s: %w", q.key(), err)
		return s
	}
	s.id = info.ID
	err = f.client.StreamEvents(ctx, info.ID, 0, func(ev fold3d.JobEvent) error {
		if ev.Kind != "state" {
			return nil
		}
		switch {
		case ev.State == jobs.StateRunning:
			s.running = since()
		case ev.State.Terminal():
			s.end = since()
			if ev.State != jobs.StateDone {
				return fmt.Errorf("job %s ended %s: %s", info.ID, ev.State, ev.Error)
			}
			s.fingerprint = ev.Fingerprint
			return errTerminal
		}
		return nil
	})
	switch {
	case errors.Is(err, errTerminal):
	case err == nil:
		// fold3dd records a job's terminal state before appending its
		// terminal event, so a stream can end between the two. Read the
		// outcome from the job's status then, as Client.Wait does.
		final, err := f.client.Job(ctx, info.ID)
		s.end = since()
		switch {
		case err != nil:
			s.err = fmt.Errorf("status of %s (%s): %w", info.ID, q.key(), err)
		case final.State != jobs.StateDone || final.Result == nil:
			s.err = fmt.Errorf("job %s ended %s: %s", info.ID, final.State, final.Error)
		default:
			s.fingerprint = final.Result.Fingerprint
		}
	default:
		s.err = fmt.Errorf("following %s (%s): %w", info.ID, q.key(), err)
	}
	return s
}

// drive runs the closed loop: serveClients clients each post their next
// request as soon as their previous one ended, taking requests from reqs in
// order. It returns the samples in request order and the loop's elapsed
// seconds.
func (f *fleet) drive(ctx context.Context, reqs []request) ([]sample, float64) {
	var next atomic.Int64
	done := make([]sample, len(reqs))
	start := time.Now()
	_ = pool.Run(ctx, serveClients, serveClients, func(ctx context.Context, _ int) error {
		for ctx.Err() == nil {
			i := int(next.Add(1) - 1)
			if i >= len(reqs) {
				return nil
			}
			done[i] = f.job(ctx, reqs[i], start)
		}
		return nil
	}) // jobs record their own failures; a canceled loop shows as missing samples
	elapsed := time.Since(start).Seconds()
	var out []sample
	for i := range done {
		if done[i].req.exp != "" {
			out = append(out, done[i])
		}
	}
	return out, elapsed
}

// scrapeMetrics sums the counters of every node's /metrics page.
func (f *fleet) scrapeMetrics(ctx context.Context) (map[string]float64, error) {
	sum := map[string]float64{}
	for _, n := range f.nodes {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.url+"/metrics", nil)
		if err != nil {
			return nil, err
		}
		resp, err := f.http.Do(req)
		if err != nil {
			return nil, fmt.Errorf("scraping fold3dd %s: %w", n.id, err)
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "#") {
				continue
			}
			series, val, ok := strings.Cut(line, " ")
			if !ok {
				continue
			}
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				sum[series] += v
			}
		}
		err = sc.Err()
		_ = resp.Body.Close() // fully read or failed; the scan error is the one worth reporting
		if err != nil {
			return nil, fmt.Errorf("scraping fold3dd %s: %w", n.id, err)
		}
	}
	return sum, nil
}

// fpCheck verifies serve results: every request's fingerprint must match
// the golden one, and every repeat of a request must match its first
// answer whichever node owned it and however warm its cache was.
type fpCheck struct {
	golden map[string]string
	seen   map[string]string
}

// check validates one finished sample.
func (c *fpCheck) check(s sample) error {
	if s.err != nil {
		return s.err
	}
	if !strings.HasPrefix(s.id, "a-") && !strings.HasPrefix(s.id, "b-") {
		return fmt.Errorf("job ID %q names no fleet node", s.id)
	}
	k := s.req.key()
	want, ok := c.golden[k]
	if !ok {
		want, ok = c.seen[k]
	}
	if !ok {
		c.seen[k] = s.fingerprint
		return nil
	}
	if s.fingerprint != want {
		return fmt.Errorf("%s on %s: fingerprint %.12s, want %.12s", k, s.id, s.fingerprint, want)
	}
	return nil
}

// runServe measures serve-fleet. Set-up starts a fresh fleet and runs the
// discarded warmupMix; it repeats lim.setups times and the last fleet is
// measured. The measured loop offers serveRate requests per second of the
// run (or lim.reps). With layers set it records the serve.* layer metrics
// of the loop instead of the end-to-end ones.
func runServe(ctx context.Context, e *env, rep *report, seed uint64, seconds float64, lim limits, g *goldenData, layers bool) {
	fc := fpCheck{golden: g.Serve, seen: map[string]string{}}
	var f *fleet
	var setups []float64
	for i := 0; i < lim.setups; i++ {
		if f != nil {
			if _, err := f.stop(); err != nil {
				rep.fail(err)
			}
		}
		t0 := time.Now()
		var err error
		if f, err = startFleet(ctx, e); err != nil {
			rep.attempt(err)
			return
		}
		warm, _ := f.drive(ctx, warmupMix())
		setups = append(setups, time.Since(t0).Seconds())
		for _, s := range warm {
			rep.attempt(fc.check(s))
		}
	}
	if f == nil {
		return
	}

	before, err := f.scrapeMetrics(ctx)
	if err != nil {
		rep.fail(err)
	}
	n := lim.reps
	if n == 0 {
		n = max(minServeJobs, int(math.Round(seconds*serveRate)))
	}
	samples, elapsed := f.drive(ctx, requestMix(seed, n))
	after, err := f.scrapeMetrics(ctx)
	if err != nil {
		rep.fail(err)
	}
	rss, err := f.stop()
	if err != nil {
		rep.fail(err)
	}

	var lat, submit, queue, run []float64
	owners := map[string]int{}
	for _, s := range samples {
		err := fc.check(s)
		rep.attempt(err)
		if err != nil {
			continue
		}
		owners[s.id[:1]]++
		lat = append(lat, s.end-s.post)
		submit = append(submit, s.accepted-s.post)
		queue = append(queue, s.running-s.accepted)
		run = append(run, s.end-s.running)
	}
	// Self-check: the ring must spread the work over both nodes.
	if owners["a"] == 0 || owners["b"] == 0 {
		rep.fail(fmt.Errorf("self-check: node a owned %d jobs and node b %d, want both > 0", owners["a"], owners["b"]))
	}

	if !layers {
		rep.timing("setup_s", setups, 1)
		rep.timing("latency_p50_ms", lat, 1000)
		if len(lat) > 0 {
			rep.Metrics["jobs_per_s"] = float64(len(lat)) / elapsed
		}
		if rss > 0 {
			rep.Metrics["peak_rss_mb"] = rss
		}
		return
	}
	rep.percentiles("serve.submit", submit)
	rep.percentiles("serve.queue_wait", queue)
	rep.percentiles("serve.run", run)
	if v, ok := tailPercentile(lat, 0.90); ok {
		rep.Metrics["serve.latency_p90_ms"] = v * 1000
	}
	if len(samples) > 0 {
		rep.Metrics["serve.forwarded_ratio"] = float64(owners["b"]) / float64(len(samples))
		seen := map[string]bool{}
		repeats := 0
		for _, s := range samples {
			if seen[s.req.key()] {
				repeats++
			}
			seen[s.req.key()] = true
		}
		rep.Metrics["serve.repeat_ratio"] = float64(repeats) / float64(len(samples))
	}
	delta := func(outcome string) float64 {
		series := `fold3dd_cache_lookups_total{outcome="` + outcome + `"}`
		return after[series] - before[series]
	}
	hits, disk, peer, miss := delta("hit"), delta("disk_hit"), delta("peer_hit"), delta("miss")
	rep.Metrics["serve.cache_hits"] = hits
	rep.Metrics["serve.cache_peer_hits"] = peer
	rep.Metrics["serve.cache_misses"] = miss
	if total := hits + disk + peer + miss; total > 0 {
		rep.Metrics["serve.cache_hit_ratio"] = (hits + disk + peer) / total
	}
}

// percentiles sets <prefix>_p50_ms and, when enough samples lie beyond it,
// <prefix>_p90_ms from samples in seconds.
func (r *report) percentiles(prefix string, samples []float64) {
	r.timing(prefix+"_p50_ms", samples, 1000)
	if v, ok := tailPercentile(samples, 0.90); ok {
		r.Metrics[prefix+"_p90_ms"] = v * 1000
	}
}
