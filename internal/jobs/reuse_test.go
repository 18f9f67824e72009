package jobs

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"fold3d/internal/errs"
	"fold3d/internal/exp"
)

// countRuns replaces m's experiment runner with exp.RunAll behind a call
// counter, so a test can tell a computed job from a reused one. inject,
// when non-nil, sees every call first and fails it by returning an error.
// Call it before the first Submit: workers read the runner only after
// dequeuing a job, under the manager lock Submit also takes.
func countRuns(m *Manager, inject func(ctx context.Context, cfg exp.Config) error) *atomic.Int64 {
	var runs atomic.Int64
	m.runAll = func(ctx context.Context, cfg exp.Config, names []string, onDone func(*exp.Result, error)) ([]*exp.Result, error) {
		runs.Add(1)
		if inject != nil {
			if err := inject(ctx, cfg); err != nil {
				return nil, err
			}
		}
		return exp.RunAll(ctx, cfg, names, onDone)
	}
	return &runs
}

// TestReuseDoneResult submits one request twice: the repeat ends done with
// the first job's result, without running the flow, touching the artifact
// cache or streaming progress.
func TestReuseDoneResult(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	defer closeNow(t, m)
	runs := countRuns(m, nil)

	// table2 builds chips, so the computed job streams progress events.
	req := Request{Experiments: []string{"table2"}, Scale: 5000}
	first := mustSubmit(t, m, req)
	a := wait(t, first)
	if a.State != StateDone {
		t.Fatalf("first job ended %s (%s), want done", a.State, a.Error)
	}
	events, _, _ := first.EventsSince(0)
	if !slices.ContainsFunc(events, func(ev Event) bool { return ev.Kind == "progress" }) {
		t.Fatal("computed job streamed no progress; the repeat's silence would prove nothing")
	}

	before := m.CacheStats()
	repeat := mustSubmit(t, m, req)
	b := wait(t, repeat)
	if b.State != StateDone || b.Result == nil || b.Result.Fingerprint != a.Result.Fingerprint {
		t.Fatalf("repeat ended %s with %+v, want done with fingerprint %s", b.State, b.Result, a.Result.Fingerprint)
	}
	if after := m.CacheStats(); after != before {
		t.Errorf("repeat touched the artifact cache: %+v -> %+v", before, after)
	}
	events, _, terminal := repeat.EventsSince(0)
	var states []State
	for _, ev := range events {
		if ev.Kind != "state" {
			t.Errorf("reused job streamed %+v", ev)
			continue
		}
		states = append(states, ev.State)
	}
	if want := []State{StateQueued, StateRunning, StateDone}; !terminal || !slices.Equal(states, want) {
		t.Errorf("reused job states = %v (terminal %v), want %v", states, terminal, want)
	}
	if last := events[len(events)-1]; last.Fingerprint != a.Result.Fingerprint {
		t.Errorf("done event fingerprint = %q, want %q", last.Fingerprint, a.Result.Fingerprint)
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("flow ran %d times for two identical requests, want 1", n)
	}
	if mt := m.Metrics(); mt.Reused != 1 || mt.Done != 2 || mt.Running != 0 {
		t.Errorf("metrics = %+v, want 2 done, 1 of them reused", mt)
	}
}

// TestReuseKeyIsTheFingerprint pins what a repeat is: a request with the
// same fingerprint. Scheduling metadata (Workers, Tenant) and spelled-out
// defaults are the same work and are reused; every field that changes the
// work makes the job run.
func TestReuseKeyIsTheFingerprint(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	defer closeNow(t, m)
	runs := countRuns(m, nil)

	base := Request{Experiments: []string{"table1"}, Scale: 5000}
	if info := wait(t, mustSubmit(t, m, base)); info.State != StateDone {
		t.Fatalf("base job ended %s (%s)", info.State, info.Error)
	}
	variant := func(edit func(*Request)) Request {
		r := base
		edit(&r)
		return r
	}
	cases := []struct {
		name   string
		req    Request
		reused bool
	}{
		{"workers", variant(func(r *Request) { r.Workers = 2 }), true},
		{"tenant", variant(func(r *Request) { r.Tenant = "acme" }), true},
		{"defaults spelled out", variant(func(r *Request) { r.Seed, r.Placer = 42, "force" }), true},
		{"seed", variant(func(r *Request) { r.Seed = 7 }), false},
		{"scale", variant(func(r *Request) { r.Scale = 4000 }), false},
		{"placer", variant(func(r *Request) { r.Placer = "analytical" }), false},
		{"experiments", variant(func(r *Request) { r.Experiments = []string{"table1", "table4"} }), false},
		{"thermal", variant(func(r *Request) { r.Thermal = &ThermalSpec{} }), false},
	}
	for _, c := range cases {
		before := runs.Load()
		info := wait(t, mustSubmit(t, m, c.req))
		if info.State != StateDone {
			t.Fatalf("%s: ended %s (%s)", c.name, info.State, info.Error)
		}
		if ran := runs.Load() > before; ran == c.reused {
			t.Errorf("%s: flow ran = %v, want reused = %v", c.name, ran, c.reused)
		}
	}
	if mt := m.Metrics(); mt.Reused != 3 {
		t.Errorf("reused = %d, want 3", mt.Reused)
	}
}

// TestReuseSkipsFailedAndCanceled checks that only done results are kept:
// after a failed and a canceled job, the same request runs again, and only
// its done result answers the next repeat.
func TestReuseSkipsFailedAndCanceled(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	defer closeNow(t, m)
	injected := []error{
		errors.New("jobs test: injected failure"),
		fmt.Errorf("%w: injected", errs.ErrCanceled),
	}
	var calls atomic.Int64
	runs := countRuns(m, func(context.Context, exp.Config) error {
		if i := calls.Add(1) - 1; i < int64(len(injected)) {
			return injected[i]
		}
		return nil
	})

	req := Request{Experiments: []string{"table1"}, Scale: 5000}
	for i, want := range []State{StateFailed, StateCanceled, StateDone, StateDone} {
		if info := wait(t, mustSubmit(t, m, req)); info.State != want {
			t.Fatalf("job %d ended %s (%s), want %s", i, info.State, info.Error, want)
		}
	}
	if n := runs.Load(); n != 3 {
		t.Errorf("flow ran %d times, want 3 (failed, canceled, done; then one reuse)", n)
	}
	if mt := m.Metrics(); mt.Failed != 1 || mt.Canceled != 1 || mt.Done != 2 || mt.Reused != 1 {
		t.Errorf("metrics = %+v, want 1 failed, 1 canceled, 2 done, 1 reused", mt)
	}
}

// TestReuseStopsAtClose queues a repeat of a done request behind a running
// job and closes the manager: the repeat ends canceled like every other
// job drained by Close, not done from the kept result.
func TestReuseStopsAtClose(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	const blockerSeed = 99
	started := make(chan struct{})
	countRuns(m, func(ctx context.Context, cfg exp.Config) error {
		if cfg.Seed != blockerSeed {
			return nil
		}
		close(started)
		<-ctx.Done()
		return fmt.Errorf("%w: %w", errs.ErrCanceled, ctx.Err())
	})

	req := Request{Experiments: []string{"table1"}, Scale: 5000}
	if info := wait(t, mustSubmit(t, m, req)); info.State != StateDone {
		t.Fatalf("first job ended %s (%s)", info.State, info.Error)
	}
	blocker := mustSubmit(t, m, Request{Experiments: []string{"table1"}, Scale: 5000, Seed: blockerSeed})
	select {
	case <-started:
	case <-time.After(60 * time.Second):
		t.Fatal("blocker job never started")
	}
	repeat := mustSubmit(t, m, req) // queued: the one worker is busy
	closeNow(t, m)

	for _, j := range []*Job{blocker, repeat} {
		info := wait(t, j)
		if info.State != StateCanceled || !errors.Is(j.Err(), errs.ErrCanceled) {
			t.Errorf("job %s ended %s (%v), want canceled wrapping ErrCanceled", j.ID(), info.State, j.Err())
		}
	}
	if mt := m.Metrics(); mt.Reused != 0 {
		t.Errorf("reused = %d after Close, want 0", mt.Reused)
	}
}
