package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"fold3d/internal/jobs"
	"fold3d/internal/pipeline"
	"fold3d/internal/place"
)

// newTestServer boots a manager + server pair on an httptest listener and
// tears both down (manager drained first) when the test ends.
func newTestServer(t *testing.T, opts jobs.Options) (*httptest.Server, *jobs.Manager) {
	t.Helper()
	mgr := jobs.NewManager(opts)
	ts := httptest.NewServer(New(mgr))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := mgr.Close(ctx); err != nil {
			t.Errorf("manager drain: %v", err)
		}
	})
	return ts, mgr
}

// postJob submits a request body and decodes the job info from the 202.
func postJob(t *testing.T, ts *httptest.Server, body string) jobs.Info {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var e map[string]string
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("POST /v1/jobs = %d (%s), want 202", resp.StatusCode, e["error"])
	}
	var info jobs.Info
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info
}

// getJSON fetches a URL and decodes the JSON body into out, returning the
// status code.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
	return resp.StatusCode
}

// pollDone polls the status endpoint until the job is terminal.
func pollDone(t *testing.T, ts *httptest.Server, id string) jobs.Info {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		var info jobs.Info
		if code := getJSON(t, ts.URL+"/v1/jobs/"+id, &info); code != http.StatusOK {
			t.Fatalf("GET /v1/jobs/%s = %d, want 200", id, code)
		}
		if info.State.Terminal() {
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, info.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestLifecycle walks the happy path over HTTP: enqueue, poll to done,
// check the result payload, and see the job in the listing.
func TestLifecycle(t *testing.T) {
	ts, _ := newTestServer(t, jobs.Options{})

	info := postJob(t, ts, `{"experiments":["table1"]}`)
	if info.ID == "" || info.State != jobs.StateQueued && info.State != jobs.StateRunning && info.State != jobs.StateDone {
		t.Fatalf("submit info = %+v", info)
	}
	if info.Request.Scale != 1000 || info.Request.Seed != 42 {
		t.Errorf("request not normalized in response: %+v", info.Request)
	}

	final := pollDone(t, ts, info.ID)
	if final.State != jobs.StateDone {
		t.Fatalf("final state = %s (%s), want done", final.State, final.Error)
	}
	if final.Result == nil || final.Result.Fingerprint == "" {
		t.Fatal("done job has no fingerprint")
	}
	if len(final.Result.Experiments) != 1 || !strings.Contains(final.Result.Experiments[0].Report, "Table 1") {
		t.Errorf("unexpected result payload: %+v", final.Result)
	}

	var list []jobs.Info
	if code := getJSON(t, ts.URL+"/v1/jobs", &list); code != http.StatusOK {
		t.Fatalf("GET /v1/jobs = %d", code)
	}
	if len(list) != 1 || list[0].ID != info.ID {
		t.Errorf("job listing = %+v", list)
	}
}

// clientErrorCases are the requests TestClientErrors sends, each with the
// status and envelope code it must get. FuzzJobRequest seeds its corpus
// from their bodies.
var clientErrorCases = []struct {
	name   string
	method string
	path   string
	body   string
	want   int
	code   string
}{
	{"malformed json", "POST", "/v1/jobs", `{"experiments":`, http.StatusBadRequest, "bad_request"},
	{"unknown field", "POST", "/v1/jobs", `{"experiment":"table1"}`, http.StatusBadRequest, "bad_request"},
	{"unknown experiment", "POST", "/v1/jobs", `{"experiments":["bogus"]}`, http.StatusBadRequest, "bad_request"},
	{"bad scale", "POST", "/v1/jobs", `{"scale":0.5}`, http.StatusBadRequest, "bad_request"},
	{"negative workers", "POST", "/v1/jobs", `{"workers":-1}`, http.StatusBadRequest, "bad_request"},
	{"unknown placer", "POST", "/v1/jobs", `{"experiments":["table1"],"placer":"simulated-annealing"}`, http.StatusBadRequest, "bad_request"},
	{"bad batch placer", "POST", "/v1/batches", `{"jobs":[{"experiments":["table1"],"placer":"bogus"}]}`, http.StatusBadRequest, "bad_request"},
	{"unknown job", "GET", "/v1/jobs/job-999999", "", http.StatusNotFound, "not_found"},
	{"unknown job events", "GET", "/v1/jobs/job-999999/events", "", http.StatusNotFound, "not_found"},
	{"empty batch", "POST", "/v1/batches", `{"jobs":[]}`, http.StatusBadRequest, "bad_request"},
	{"bad batch member", "POST", "/v1/batches", `{"jobs":[{"experiments":["bogus"]}]}`, http.StatusBadRequest, "bad_request"},
	{"unknown batch", "GET", "/v1/batches/batch-999999", "", http.StatusNotFound, "not_found"},
	{"unknown batch events", "GET", "/v1/batches/batch-999999/events", "", http.StatusNotFound, "not_found"},
	{"unknown artifact", "GET", "/v1/artifacts/deadbeef", "", http.StatusNotFound, "not_found"},
}

// TestClientErrors is the table-driven test of the unified error envelope:
// every /v1 error is {"error":{"code","message"}} with the status and code
// drawn from the single sentinel-mapping table.
func TestClientErrors(t *testing.T) {
	ts, _ := newTestServer(t, jobs.Options{})

	for _, c := range clientErrorCases {
		t.Run(c.name, func(t *testing.T) {
			req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != c.want {
				t.Fatalf("status = %d, want %d", resp.StatusCode, c.want)
			}
			var e ErrorBody
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatalf("error envelope undecodable: %v", err)
			}
			if e.Error.Code != c.code || e.Error.Message == "" {
				t.Errorf("envelope = %+v, want code %q with a message", e, c.code)
			}
		})
	}

	// A bad ?from= on a real job is also a 400.
	info := postJob(t, ts, `{"experiments":["table1"]}`)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + info.ID + "/events?from=x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad from = %d, want 400", resp.StatusCode)
	}
}

// TestPlacerFieldOverHTTP pins the wire-level placer contract: the 400 for
// an unknown backend names every valid one, and a job carrying a valid
// non-default backend completes with a fingerprint distinct from the
// default backend's.
func TestPlacerFieldOverHTTP(t *testing.T) {
	ts, _ := newTestServer(t, jobs.Options{})

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"experiments":["table4"],"placer":"quadratic"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown placer status = %d, want 400", resp.StatusCode)
	}
	var e ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("error envelope undecodable: %v", err)
	}
	for _, name := range place.BackendNames() {
		if !strings.Contains(e.Error.Message, name) {
			t.Errorf("400 message %q does not name valid backend %q", e.Error.Message, name)
		}
	}

	force := pollDone(t, ts, postJob(t, ts, `{"experiments":["table4"]}`).ID)
	analytical := pollDone(t, ts, postJob(t, ts, `{"experiments":["table4"],"placer":"analytical"}`).ID)
	if force.State != jobs.StateDone || analytical.State != jobs.StateDone {
		t.Fatalf("jobs did not finish: %s / %s", force.State, analytical.State)
	}
	if force.Result.Fingerprint == analytical.Result.Fingerprint {
		t.Errorf("analytical job fingerprint matches force: backend not reaching the flow")
	}
}

// TestEventStreamNDJSON consumes the live stream of a chip-building job and
// checks NDJSON framing and ordering: one JSON object per line, dense Seq
// from 0, queued→running first, terminal state last.
func TestEventStreamNDJSON(t *testing.T) {
	ts, _ := newTestServer(t, jobs.Options{})
	info := postJob(t, ts, `{"experiments":["table2"],"scale":5000}`)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + info.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}

	var events []jobs.Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev jobs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d is not JSON: %v: %q", len(events), err, sc.Text())
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	if len(events) < 3 {
		t.Fatalf("got %d events", len(events))
	}
	for i, ev := range events {
		if ev.Seq != i {
			t.Fatalf("events[%d].Seq = %d: stream reordered or gapped", i, ev.Seq)
		}
	}
	if events[0].State != jobs.StateQueued || events[1].State != jobs.StateRunning {
		t.Errorf("stream prefix = %+v %+v, want queued then running", events[0], events[1])
	}
	last := events[len(events)-1]
	if last.Kind != "state" || !last.State.Terminal() {
		t.Errorf("stream did not end on a terminal state: %+v", last)
	}
	if last.State == jobs.StateDone && last.Fingerprint == "" {
		t.Error("done event lacks fingerprint")
	}
	progress := 0
	for _, ev := range events {
		if ev.Kind == "progress" {
			progress++
			if ev.Experiment != "table2" {
				t.Errorf("progress event lacks experiment tag: %+v", ev)
			}
		}
	}
	if progress == 0 {
		t.Error("chip build streamed no progress events")
	}

	// Resume mid-stream: ?from=N replays exactly the suffix of a finished job.
	from := len(events) - 2
	resp2, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/events?from=%d", ts.URL, info.ID, from))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var tail []jobs.Event
	sc2 := bufio.NewScanner(resp2.Body)
	for sc2.Scan() {
		var ev jobs.Event
		if err := json.Unmarshal(sc2.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		tail = append(tail, ev)
	}
	if len(tail) != 2 || tail[0].Seq != from {
		t.Errorf("resumed stream = %+v, want 2 events from seq %d", tail, from)
	}
}

// TestDeterministicFingerprints is the acceptance gate: the same request
// body must yield byte-identical result fingerprints whether it runs cold
// (fresh manager), as four simultaneous jobs racing each other, warm (a
// second manager rerunning it against the first one's populated cache), or
// as a repeat the first manager answers by result reuse.
func TestDeterministicFingerprints(t *testing.T) {
	const body = `{"experiments":["table4"]}`

	// Cold reference on its own manager.
	ref := func() string {
		ts, _ := newTestServer(t, jobs.Options{})
		info := pollDone(t, ts, postJob(t, ts, body).ID)
		if info.State != jobs.StateDone {
			t.Fatalf("cold job %s: %s", info.State, info.Error)
		}
		return info.Result.Fingerprint
	}()

	cache := pipeline.NewCache(pipeline.CacheOptions{})
	ts, mgr := newTestServer(t, jobs.Options{Workers: 4, Cache: cache})

	// Four simultaneous jobs against one shared cache.
	var wg sync.WaitGroup
	ids := make([]string, 4)
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[i] = postJob(t, ts, body).ID
		}(i)
	}
	wg.Wait()
	for _, id := range ids {
		info := pollDone(t, ts, id)
		if info.State != jobs.StateDone {
			t.Fatalf("concurrent job %s: %s", info.State, info.Error)
		}
		if info.Result.Fingerprint != ref {
			t.Errorf("concurrent fingerprint %s != cold %s", info.Result.Fingerprint, ref)
		}
	}

	// Warm rerun on a second manager over the now-populated cache (the
	// first manager would answer it from its done result).
	warm, _ := newTestServer(t, jobs.Options{Cache: cache})
	before := cache.Stats()
	info := pollDone(t, warm, postJob(t, warm, body).ID)
	if info.Result.Fingerprint != ref {
		t.Errorf("warm fingerprint %s != cold %s", info.Result.Fingerprint, ref)
	}
	if st := cache.Stats(); st.Hits == before.Hits {
		t.Errorf("warm rerun saw no cache hits: %+v", st)
	}

	// A repeat on the first manager is answered by reuse.
	reused := mgr.Metrics().Reused
	info = pollDone(t, ts, postJob(t, ts, body).ID)
	if info.Result.Fingerprint != ref {
		t.Errorf("reused fingerprint %s != cold %s", info.Result.Fingerprint, ref)
	}
	if got := mgr.Metrics().Reused; got != reused+1 {
		t.Errorf("repeat on the first manager: reused %d -> %d, want one more", reused, got)
	}
}

// TestGracefulShutdownDrains closes the manager mid-flight and checks that
// every job terminalizes, the server reports draining, and no scheduler
// goroutines leak.
func TestGracefulShutdownDrains(t *testing.T) {
	before := runtime.NumGoroutine()

	mgr := jobs.NewManager(jobs.Options{Workers: 1})
	ts := httptest.NewServer(New(mgr))
	defer ts.Close()

	var ids []string
	for i := 0; i < 4; i++ {
		ids = append(ids, postJob(t, ts, `{"experiments":["table2"]}`).ID)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := mgr.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Every job reached a terminal state; the API still serves their status.
	canceled := 0
	for _, id := range ids {
		var info jobs.Info
		if code := getJSON(t, ts.URL+"/v1/jobs/"+id, &info); code != http.StatusOK {
			t.Fatalf("GET after shutdown = %d", code)
		}
		if !info.State.Terminal() {
			t.Errorf("job %s not terminal after drain: %s", id, info.State)
		}
		if info.State == jobs.StateCanceled {
			canceled++
		}
	}
	if canceled == 0 {
		t.Error("immediate shutdown canceled nothing")
	}

	// New submissions bounce with 503, and /healthz flips to draining.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit after shutdown = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shutdown 503 carries no Retry-After header")
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz after shutdown = %d, want 503", resp.StatusCode)
	}

	// The scheduler goroutines are gone. Allow slack for runtime and
	// httptest helper goroutines, but catch a leaked worker set.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if runtime.NumGoroutine() <= before+4 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines: %d before, %d after drain\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestQueueFullOverHTTP checks the 503 + error body on queue overflow.
func TestQueueFullOverHTTP(t *testing.T) {
	ts, _ := newTestServer(t, jobs.Options{Workers: 1, QueueDepth: 1})

	first := postJob(t, ts, `{"experiments":["table2"]}`)
	// Wait for the worker to pick the first job up so the queue is empty.
	deadline := time.Now().Add(30 * time.Second)
	for {
		var info jobs.Info
		getJSON(t, ts.URL+"/v1/jobs/"+first.ID, &info)
		if info.State != jobs.StateQueued {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	postJob(t, ts, `{"experiments":["table1"]}`) // fills the queue
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"experiments":["table1"]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("overflow submit = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("queue-full 503 carries no Retry-After header")
	}
	var e ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error.Code != "queue_full" {
		t.Errorf("queue-full envelope = %+v (%v), want code queue_full", e, err)
	}
}

// TestQuotaOverHTTP pins the per-tenant 429: a tenant at its quota gets
// quota_exceeded with Retry-After while another tenant still gets 202.
func TestQuotaOverHTTP(t *testing.T) {
	ts, _ := newTestServer(t, jobs.Options{Workers: 1, QueueDepth: 16, TenantQuota: 1})

	// Flood one tenant; with a quota of 1 and jobs taking seconds, at least
	// one of three rapid submissions must bounce with 429.
	var rejected *http.Response
	for i := 0; i < 3 && rejected == nil; i++ {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
			strings.NewReader(`{"experiments":["table2"],"tenant":"acme"}`))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			rejected = resp
		} else {
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit %d = %d", i, resp.StatusCode)
			}
		}
	}
	if rejected == nil {
		t.Fatal("three rapid submissions never hit the quota of 1")
	}
	defer rejected.Body.Close()
	if rejected.Header.Get("Retry-After") == "" {
		t.Error("quota 429 carries no Retry-After header")
	}
	var e ErrorBody
	if err := json.NewDecoder(rejected.Body).Decode(&e); err != nil || e.Error.Code != "quota_exceeded" {
		t.Errorf("quota envelope = %+v (%v), want code quota_exceeded", e, err)
	}

	// Another tenant is still welcome.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"experiments":["table4"],"tenant":"other"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("other tenant = %d, want 202 while acme is at quota", resp.StatusCode)
	}
}

// TestHealthzAndMetrics scrapes both operational endpoints after a job and
// checks the Prometheus exposition essentials.
func TestHealthzAndMetrics(t *testing.T) {
	ts, _ := newTestServer(t, jobs.Options{})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := readAll(resp)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz = %d %q", resp.StatusCode, body)
	}

	pollDone(t, ts, postJob(t, ts, `{"experiments":["table2"],"scale":5000}`).ID)

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := readAll(resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d", resp.StatusCode)
	}
	for _, want := range []string{
		`fold3dd_jobs_total{state="done"} 1`,
		`fold3dd_jobs_submitted_total 1`,
		"fold3dd_jobs_reused_total 0",
		"fold3dd_cache_hit_ratio ",
		"fold3dd_cache_stores_total ",
		`fold3dd_stage_latency_seconds_bucket{stage=`,
		`le="+Inf"`,
		"fold3dd_stage_latency_seconds_count{stage=",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	// Histogram TYPE line present exactly once; bucket lines are cumulative
	// (spot-checked in the jobs package, framing checked here).
	if strings.Count(text, "# TYPE fold3dd_stage_latency_seconds histogram") != 1 {
		t.Error("histogram TYPE line missing or duplicated")
	}
}

func readAll(resp *http.Response) (string, error) {
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			if err.Error() == "EOF" {
				return sb.String(), nil
			}
			return sb.String(), err
		}
	}
}

// BenchmarkServerJobsCold measures end-to-end jobs/sec through the HTTP
// surface with a fresh manager (and so a cold cache) per iteration.
func BenchmarkServerJobsCold(b *testing.B) {
	body := `{"experiments":["table4"]}`
	for i := 0; i < b.N; i++ {
		mgr := jobs.NewManager(jobs.Options{Workers: 2})
		ts := httptest.NewServer(New(mgr))
		benchOneJob(b, ts, body)
		ts.Close()
		_ = mgr.Close(context.Background())
	}
}

// BenchmarkServerJobsShared measures jobs/sec against one long-lived
// manager: after the first iteration every job repeats a done request, so
// it measures the HTTP round trip and result reuse.
func BenchmarkServerJobsShared(b *testing.B) {
	mgr := jobs.NewManager(jobs.Options{Workers: 2})
	ts := httptest.NewServer(New(mgr))
	defer func() {
		ts.Close()
		_ = mgr.Close(context.Background())
	}()
	body := `{"experiments":["table4"]}`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchOneJob(b, ts, body)
	}
}

func benchOneJob(b *testing.B, ts *httptest.Server, body string) {
	b.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	var info jobs.Info
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b.Fatalf("submit = %d", resp.StatusCode)
	}
	// Follow the event stream to termination: cheaper than polling and it
	// exercises the streaming path under benchmark load.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + info.ID + "/events")
	if err != nil {
		b.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var last jobs.Event
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			b.Fatal(err)
		}
	}
	resp.Body.Close()
	if last.State != jobs.StateDone {
		b.Fatalf("job ended %s (%s)", last.State, last.Error)
	}
	if last.Fingerprint == "" {
		b.Fatal("no fingerprint")
	}
}

// TestBatchOverHTTP drives the batch API end to end: atomic submission,
// the multiplexed NDJSON stream (dense batch Seq, job-tagged events,
// ?from= resume), and the terminal batch status.
func TestBatchOverHTTP(t *testing.T) {
	ts, _ := newTestServer(t, jobs.Options{Workers: 2})

	resp, err := http.Post(ts.URL+"/v1/batches", "application/json",
		strings.NewReader(`{"jobs":[{"experiments":["table4"]},{"experiments":["table4"],"seed":7}]}`))
	if err != nil {
		t.Fatal(err)
	}
	var binfo jobs.BatchInfo
	if err := json.NewDecoder(resp.Body).Decode(&binfo); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/batches = %d, want 202", resp.StatusCode)
	}
	if len(binfo.Jobs) != 2 || binfo.ID == "" {
		t.Fatalf("batch info = %+v", binfo)
	}

	// Stream the multiplexed events until the batch terminalizes.
	stream, err := http.Get(ts.URL + "/v1/batches/" + binfo.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("batch stream content type = %q", ct)
	}
	var events []jobs.BatchEvent
	perJob := map[string]int{}
	sc := bufio.NewScanner(stream.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev jobs.BatchEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if ev.Seq != len(events) {
			t.Fatalf("batch Seq not dense: got %d at position %d", ev.Seq, len(events))
		}
		if ev.Event.Seq != perJob[ev.Job] {
			t.Fatalf("job %s events reordered: got seq %d, want %d", ev.Job, ev.Event.Seq, perJob[ev.Job])
		}
		perJob[ev.Job]++
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(perJob) != 2 {
		t.Fatalf("stream covered %d jobs, want 2", len(perJob))
	}

	// Terminal status, with two distinct member fingerprints (seeds differ).
	var final jobs.BatchInfo
	if code := getJSON(t, ts.URL+"/v1/batches/"+binfo.ID, &final); code != http.StatusOK {
		t.Fatalf("GET /v1/batches/{id} = %d", code)
	}
	if final.State != jobs.StateDone {
		t.Fatalf("batch state = %s, want done", final.State)
	}
	if final.Jobs[0].Result.Fingerprint == final.Jobs[1].Result.Fingerprint {
		t.Fatal("different seeds produced identical fingerprints")
	}

	// ?from= resume: ask for the tail only.
	tail, err := http.Get(ts.URL + "/v1/batches/" + binfo.ID + "/events?from=" + fmt.Sprint(len(events)-1))
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Body.Close()
	tsc := bufio.NewScanner(tail.Body)
	n := 0
	for tsc.Scan() {
		var ev jobs.BatchEvent
		if err := json.Unmarshal(tsc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Seq != len(events)-1+n {
			t.Fatalf("resume returned seq %d, want %d", ev.Seq, len(events)-1+n)
		}
		n++
	}
	if n != 1 {
		t.Fatalf("resume from last returned %d events, want 1", n)
	}
}

// TestArtifactEndpointServesWireEntries pins the peer-serving path over
// HTTP: after a job runs, its block artifacts are fetchable as wire
// entries that decode cleanly, and unknown keys 404.
func TestArtifactEndpointServesWireEntries(t *testing.T) {
	ts, mgr := newTestServer(t, jobs.Options{})
	info := postJob(t, ts, `{"experiments":["table4"]}`)
	pollDone(t, ts, info.ID)

	// The manager's cache now holds block artifacts; EntryBytes must serve
	// at least one of them over the endpoint. We don't know the keys from
	// here, so assert via the manager's stats + a negative probe.
	if st := mgr.CacheStats(); st.Stores == 0 {
		t.Fatal("job stored no artifacts to serve")
	}
	resp, err := http.Get(ts.URL + "/v1/artifacts/no-such-key")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown artifact = %d, want 404", resp.StatusCode)
	}
	var e ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error.Code != "not_found" {
		t.Fatalf("artifact 404 envelope = %+v (%v)", e, err)
	}
}

// TestArtifactEndpointConfinesKeys pins the artifact endpoint to the cache
// directory. ServeMux unescapes %2F inside the {key} segment, so a crafted
// key arrives as a relative path; a single-node daemon checks no peer
// token, so this reaches any client. Only hex keys may name a spill file.
func TestArtifactEndpointConfinesKeys(t *testing.T) {
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "secret.f3dc"), []byte("secret"), 0o644); err != nil {
		t.Fatal(err)
	}
	cache := pipeline.NewCache(pipeline.CacheOptions{Dir: filepath.Join(root, "a", "cache")})
	ts, _ := newTestServer(t, jobs.Options{Cache: cache})

	resp, err := http.Get(ts.URL + "/v1/artifacts/..%2F..%2Fsecret")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&e); resp.StatusCode != http.StatusNotFound || err != nil || e.Error.Code != "not_found" {
		t.Fatalf("traversal key = %d %+v (%v), want 404 not_found", resp.StatusCode, e, err)
	}
}

// TestPprofGate checks the profiling endpoints are mounted only when
// Options.Pprof is set: the index and a named profile serve 200 with the
// flag, and the whole /debug/pprof/ subtree 404s without it.
func TestPprofGate(t *testing.T) {
	mgr := jobs.NewManager(jobs.Options{})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := mgr.Close(ctx); err != nil {
			t.Errorf("manager drain: %v", err)
		}
	})

	on := httptest.NewServer(NewWithOptions(Options{Manager: mgr, Pprof: true}))
	defer on.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/goroutine?debug=1", "/debug/pprof/cmdline"} {
		resp, err := http.Get(on.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := readAll(resp)
		if resp.StatusCode != http.StatusOK || body == "" {
			t.Fatalf("pprof on: GET %s = %d (%d bytes), want 200 with body", path, resp.StatusCode, len(body))
		}
	}

	off := httptest.NewServer(NewWithOptions(Options{Manager: mgr}))
	defer off.Close()
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof off: GET /debug/pprof/ = %d, want 404", resp.StatusCode)
	}

	// The flag must not disturb the regular surface.
	resp, err = http.Get(on.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz with pprof on = %d, want 200", resp.StatusCode)
	}
}
