package main

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"fold3d/internal/jobs"
)

// TestDaemonSmoke boots the real daemon on a random port, runs one small
// job end to end over HTTP, scrapes /metrics, and shuts the process down
// with a real SIGTERM.
func TestDaemonSmoke(t *testing.T) {
	addrc := make(chan string, 1)
	exitc := make(chan int, 1)
	go func() {
		exitc <- run(
			[]string{"-addr", "127.0.0.1:0", "-jobs", "2", "-cachestats", "-pprof"},
			func(addr string) { addrc <- addr },
		)
	}()

	var base string
	select {
	case addr := <-addrc:
		base = "http://" + addr
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never bound its listener")
	}

	// Readiness.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	// -pprof was passed, so the profiling index must serve.
	resp, err = http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index = %d, want 200", resp.StatusCode)
	}

	// One small end-to-end job.
	resp, err = http.Post(base+"/v1/jobs", "application/json",
		strings.NewReader(`{"experiments":["table4"]}`))
	if err != nil {
		t.Fatal(err)
	}
	var info jobs.Info
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	deadline := time.Now().Add(60 * time.Second)
	for !info.State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", info.State)
		}
		time.Sleep(5 * time.Millisecond)
		resp, err = http.Get(base + "/v1/jobs/" + info.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	if info.State != jobs.StateDone || info.Result == nil || info.Result.Fingerprint == "" {
		t.Fatalf("job ended %s (%s), result %+v", info.State, info.Error, info.Result)
	}

	// Scrape /metrics and check the job and cache counters moved.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, rerr := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if rerr != nil {
			break
		}
	}
	resp.Body.Close()
	metrics := sb.String()
	for _, want := range []string{
		`fold3dd_jobs_total{state="done"} 1`,
		"fold3dd_jobs_submitted_total 1",
		"fold3dd_cache_hit_ratio ",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Graceful shutdown on a real signal.
	p, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exitc:
		if code != 0 {
			t.Fatalf("daemon exited %d", code)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("daemon did not exit on SIGTERM")
	}
}

// TestRunBadFlags pins the usage exit code.
func TestRunBadFlags(t *testing.T) {
	if code := run([]string{"-no-such-flag"}, nil); code != 2 {
		t.Errorf("bad flag exit = %d, want 2", code)
	}
}

// TestRunBadAddr pins the listen-failure exit code.
func TestRunBadAddr(t *testing.T) {
	if code := run([]string{"-addr", "256.0.0.1:bad"}, nil); code != 1 {
		t.Errorf("bad addr exit = %d, want 1", code)
	}
}

// TestServerClosesSlowHeaders pins the slowloris guard: a raw connection
// that sends half a request header is closed by the server within the
// header timeout plus some slack. It runs newServer with a short timeout;
// the daemon's own is readHeaderTimeout.
func TestServerClosesSlowHeaders(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const headerTimeout = 200 * time.Millisecond
	srv := newServer(http.NotFoundHandler(), headerTimeout)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-errc
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: fold3dd\r\n"); err != nil {
		t.Fatal(err)
	}
	const slack = 3 * time.Second
	if err := conn.SetReadDeadline(start.Add(headerTimeout + slack)); err != nil {
		t.Fatal(err)
	}
	n, err := conn.Read(make([]byte, 1))
	waited := time.Since(start)
	if !errors.Is(err, io.EOF) {
		t.Fatalf("read after %v: %d bytes, %v; want the server to close the connection", waited, n, err)
	}
	// Half the timeout of slack below: the server starts its clock when it
	// accepts, which may precede start.
	if waited < headerTimeout/2 {
		t.Fatalf("server closed after %v, before the %v header timeout", waited, headerTimeout)
	}
}

// TestShutdownClosesFreshConnections pins the drain against a client that
// connected but never sent a request. net/http's Shutdown counts such a
// connection as active until it is 5 s old, which outlived a shorter -drain
// and made the daemon exit 1; it must exit 0, well within -drain.
func TestShutdownClosesFreshConnections(t *testing.T) {
	const drain = time.Second
	addrc := make(chan string, 1)
	exitc := make(chan int, 1)
	go func() {
		exitc <- run([]string{"-addr", "127.0.0.1:0", "-drain", drain.String()},
			func(addr string) { addrc <- addr })
	}()
	var addr string
	select {
	case addr = <-addrc:
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never bound its listener")
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A request answered on a later connection proves that the server has
	// accepted the raw one (the accept queue is FIFO) and that the signal
	// handler is installed.
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	p, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := p.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exitc:
		waited := time.Since(start)
		if code != 0 {
			t.Fatalf("daemon exited %d after %v, want 0", code, waited)
		}
		if waited > drain/2 {
			t.Errorf("shutdown took %v of a %v drain", waited, drain)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit on SIGTERM")
	}
}
