package jobs

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"fold3d/internal/errs"
)

// wait blocks until the job terminates or the test times out.
func wait(t *testing.T, j *Job) Info {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s did not terminate", j.ID())
	}
	return j.Info()
}

// closeNow shuts the manager down with a generous drain deadline.
func closeNow(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := m.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestSubmitValidation(t *testing.T) {
	m := NewManager(Options{})
	defer closeNow(t, m)

	cases := []struct {
		name string
		req  Request
		want error
	}{
		{"negative scale", Request{Scale: -1}, errs.ErrBadRequest},
		{"fractional scale", Request{Scale: 0.25}, errs.ErrBadRequest},
		{"negative workers", Request{Workers: -1}, errs.ErrBadRequest},
		{"unknown experiment", Request{Experiments: []string{"nope"}}, errs.ErrUnknownExperiment},
	}
	for _, c := range cases {
		if _, err := m.Submit(c.req); !errors.Is(err, c.want) {
			t.Errorf("%s: Submit err = %v, want %v", c.name, err, c.want)
		}
		if _, err := m.Submit(c.req); !errors.Is(err, errs.ErrBadRequest) {
			t.Errorf("%s: Submit err = %v, want ErrBadRequest", c.name, err)
		}
	}
	if mt := m.Metrics(); mt.Submitted != 0 {
		t.Errorf("rejected submissions were counted: %+v", mt)
	}
}

func TestJobLifecycleDone(t *testing.T) {
	m := NewManager(Options{})
	defer closeNow(t, m)

	j, err := m.Submit(Request{Experiments: []string{"table1"}})
	if err != nil {
		t.Fatal(err)
	}
	if j.ID() == "" {
		t.Fatal("empty job ID")
	}
	// Normalization fills the defaults into the stored request.
	if req := j.Request(); req.Scale != 1000 || req.Seed != 42 {
		t.Errorf("normalized request = %+v, want scale 1000 seed 42", req)
	}
	info := wait(t, j)
	if info.State != StateDone {
		t.Fatalf("state = %s (err %q), want done", info.State, info.Error)
	}
	if info.Result == nil || info.Result.Fingerprint == "" {
		t.Fatal("done job has no result fingerprint")
	}
	if len(info.Result.Experiments) != 1 || info.Result.Experiments[0].Name != "table1" {
		t.Fatalf("result experiments = %+v", info.Result.Experiments)
	}
	if info.Result.Experiments[0].Report == "" {
		t.Error("empty report")
	}

	got, err := m.Get(j.ID())
	if err != nil || got != j {
		t.Fatalf("Get(%s) = %v, %v", j.ID(), got, err)
	}
	if _, err := m.Get("job-999999"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("Get(bogus) err = %v, want ErrUnknownJob", err)
	}

	mt := m.Metrics()
	if mt.Done != 1 || mt.Failed != 0 || mt.Canceled != 0 || mt.Submitted != 1 {
		t.Errorf("metrics = %+v, want one done job", mt)
	}
}

// TestEventStreamOrdering checks the event contract: dense strictly
// increasing Seq, a queued→running prefix, flow progress tagged with the
// experiment name in between, and a terminal state event last.
func TestEventStreamOrdering(t *testing.T) {
	m := NewManager(Options{})
	defer closeNow(t, m)

	// table2 builds full chips, the one flow level that emits progress
	// events; the large scale keeps the design tiny.
	j, err := m.Submit(Request{Experiments: []string{"table2"}, Scale: 5000})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, j)

	events, _, terminal := j.EventsSince(0)
	if !terminal {
		t.Fatal("terminal job reports non-terminal stream")
	}
	if len(events) < 3 {
		t.Fatalf("got %d events, want at least queued/running/done", len(events))
	}
	for i, ev := range events {
		if ev.Seq != i {
			t.Fatalf("events[%d].Seq = %d, want %d", i, ev.Seq, i)
		}
	}
	if events[0].Kind != "state" || events[0].State != StateQueued {
		t.Errorf("events[0] = %+v, want queued", events[0])
	}
	if events[1].Kind != "state" || events[1].State != StateRunning {
		t.Errorf("events[1] = %+v, want running", events[1])
	}
	last := events[len(events)-1]
	if last.Kind != "state" || last.State != StateDone || last.Fingerprint == "" {
		t.Errorf("last event = %+v, want done with fingerprint", last)
	}
	progress := 0
	for _, ev := range events[2 : len(events)-1] {
		if ev.Kind != "progress" {
			t.Errorf("mid-stream event %+v is not progress", ev)
			continue
		}
		progress++
		if ev.Experiment != "table2" {
			t.Errorf("progress event %+v lacks its experiment tag", ev)
		}
	}
	if progress == 0 {
		t.Error("a flow-running job emitted no progress events")
	}

	// Resumption: EventsSince(from) returns exactly the suffix.
	tail, _, _ := j.EventsSince(len(events) - 2)
	if len(tail) != 2 || tail[0].Seq != len(events)-2 {
		t.Errorf("EventsSince suffix = %+v", tail)
	}
}

// TestStreamEndsWithTerminalEvent follows job streams the way the event
// endpoint does — read EventsSince until it reports terminal — while the
// job finishes. A stream that sees the terminal state must also see the
// terminal state event: the follower polls without pausing so it keeps
// landing inside the state transition.
func TestStreamEndsWithTerminalEvent(t *testing.T) {
	m := NewManager(Options{})
	defer closeNow(t, m)
	for i := 0; i < 50; i++ {
		j := mustSubmit(t, m, Request{Experiments: []string{"table1"}, Scale: 5000})
		var got []Event
		deadline := time.Now().Add(60 * time.Second)
		for {
			evs, _, terminal := j.EventsSince(len(got))
			got = append(got, evs...)
			if terminal {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("run %d: job %s never terminated", i, j.ID())
			}
			runtime.Gosched()
		}
		if last := got[len(got)-1]; last.Kind != "state" || !last.State.Terminal() {
			t.Fatalf("run %d: stream reported terminal but ended with %+v", i, last)
		}
	}
}

// TestFingerprintDeterministicColdVsWarm is the jobs-level half of the
// determinism contract: the same request resubmitted to the same manager
// (now with a warm shared cache) and to a fresh manager (cold) produces
// the same result fingerprint.
func TestFingerprintDeterministicColdVsWarm(t *testing.T) {
	req := Request{Experiments: []string{"table4"}}

	m1 := NewManager(Options{})
	a := wait(t, mustSubmit(t, m1, req))
	b := wait(t, mustSubmit(t, m1, req)) // warm: same manager, shared cache
	closeNow(t, m1)

	m2 := NewManager(Options{})
	c := wait(t, mustSubmit(t, m2, req)) // cold: fresh manager and cache
	closeNow(t, m2)

	if a.State != StateDone || b.State != StateDone || c.State != StateDone {
		t.Fatalf("states = %s/%s/%s, want done", a.State, b.State, c.State)
	}
	if a.Result.Fingerprint != b.Result.Fingerprint {
		t.Errorf("warm fingerprint drifted: %s != %s", b.Result.Fingerprint, a.Result.Fingerprint)
	}
	if a.Result.Fingerprint != c.Result.Fingerprint {
		t.Errorf("cold fingerprint drifted: %s != %s", c.Result.Fingerprint, a.Result.Fingerprint)
	}
	// The warm run must actually have reused artifacts.
	if st := m1.CacheStats(); st.Hits == 0 {
		t.Errorf("warm rerun hit the cache 0 times: %+v", st)
	}
}

func mustSubmit(t *testing.T, m *Manager, req Request) *Job {
	t.Helper()
	j, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestCloseDrainsEverything submits more work than one worker can finish
// and shuts down: every job must reach a terminal state, queued ones as
// canceled with errors wrapping ErrCanceled, and Submit must refuse new
// work afterwards.
func TestCloseDrainsEverything(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	var jobs []*Job
	for i := 0; i < 4; i++ {
		jobs = append(jobs, mustSubmit(t, m, Request{Experiments: []string{"table2"}}))
	}
	closeNow(t, m)

	canceled := 0
	for _, j := range jobs {
		info := wait(t, j)
		if !info.State.Terminal() {
			t.Fatalf("job %s left in state %s", j.ID(), info.State)
		}
		if info.State == StateCanceled {
			canceled++
			if !errors.Is(j.Err(), errs.ErrCanceled) {
				t.Errorf("canceled job %s error %v does not wrap ErrCanceled", j.ID(), j.Err())
			}
		}
	}
	if canceled == 0 {
		t.Error("immediate shutdown canceled no jobs")
	}
	if _, err := m.Submit(Request{}); !errors.Is(err, ErrShutdown) {
		t.Errorf("Submit after Close = %v, want ErrShutdown", err)
	}
	if !m.Closed() {
		t.Error("Closed() = false after Close")
	}
	// Idempotent.
	closeNow(t, m)
}

// TestQueueFull fills the bounded queue behind a busy worker and checks
// the overflow rejection.
func TestQueueFull(t *testing.T) {
	m := NewManager(Options{Workers: 1, QueueDepth: 1})
	defer closeNow(t, m)

	a := mustSubmit(t, m, Request{Experiments: []string{"table2"}})
	// Wait until the worker has picked job A up, so the queue is empty.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if a.Info().State != StateQueued {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job A never started")
		}
		time.Sleep(time.Millisecond)
	}
	mustSubmit(t, m, Request{Experiments: []string{"table1"}}) // fills the queue
	if _, err := m.Submit(Request{Experiments: []string{"table1"}}); !errors.Is(err, ErrQueueFull) {
		t.Errorf("Submit on full queue = %v, want ErrQueueFull", err)
	}
}

// TestInfosOrder checks the submission-order listing.
func TestInfosOrder(t *testing.T) {
	m := NewManager(Options{})
	defer closeNow(t, m)
	var ids []string
	for i := 0; i < 3; i++ {
		ids = append(ids, mustSubmit(t, m, Request{Experiments: []string{"table1"}}).ID())
	}
	infos := m.Infos()
	if len(infos) != 3 {
		t.Fatalf("got %d infos, want 3", len(infos))
	}
	for i, info := range infos {
		if info.ID != ids[i] {
			t.Errorf("infos[%d].ID = %s, want %s", i, info.ID, ids[i])
		}
	}
}

// TestStageLatencyHistograms checks that running a flow populates
// per-stage histograms with cumulative bucket counts.
func TestStageLatencyHistograms(t *testing.T) {
	m := NewManager(Options{})
	defer closeNow(t, m)
	wait(t, mustSubmit(t, m, Request{Experiments: []string{"table2"}, Scale: 5000}))

	mt := m.Metrics()
	if len(mt.Stages) == 0 {
		t.Fatal("no stage histograms after a chip-building job")
	}
	for _, sl := range mt.Stages {
		if sl.Count <= 0 {
			t.Errorf("stage %s has zero observations", sl.Stage)
		}
		if sl.SumSeconds < 0 {
			t.Errorf("stage %s has negative latency sum", sl.Stage)
		}
		if len(sl.CumCounts) != len(sl.Bounds) {
			t.Fatalf("stage %s: %d cum counts for %d bounds", sl.Stage, len(sl.CumCounts), len(sl.Bounds))
		}
		for i := 1; i < len(sl.CumCounts); i++ {
			if sl.CumCounts[i] < sl.CumCounts[i-1] {
				t.Errorf("stage %s: bucket counts not cumulative: %v", sl.Stage, sl.CumCounts)
			}
		}
		if last := sl.CumCounts[len(sl.CumCounts)-1]; last > sl.Count {
			t.Errorf("stage %s: cumulative count %d exceeds total %d", sl.Stage, last, sl.Count)
		}
	}
}
