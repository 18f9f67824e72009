package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// env locates what one benchmark run uses on disk, all inside the
// repository checkout.
type env struct {
	// root is the repository root.
	root string
	// bin holds the fold3d and fold3dd binaries built from root.
	bin string
	// work is this run's scratch directory, removed when the run ends.
	work string
}

// newEnv prepares the build output and scratch directories under
// root/.bench_build.
func newEnv(root string) (*env, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	out := filepath.Join(abs, ".bench_build")
	e := &env{root: abs, bin: filepath.Join(out, "bin")}
	if err := os.MkdirAll(e.bin, 0o755); err != nil {
		return nil, err
	}
	if e.work, err = os.MkdirTemp(out, "work-"); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *env) fold3d() string  { return filepath.Join(e.bin, "fold3d") }
func (e *env) fold3dd() string { return filepath.Join(e.bin, "fold3dd") }

// cacheDir is the -cachedir a warm workload fills in set-up.
func (e *env) cacheDir(w workload) string { return filepath.Join(e.work, w.name+"-cache") }

// build compiles fold3d and fold3dd from the checkout into e.bin. An
// up-to-date build is a cache hit of well under a second.
func (e *env) build(ctx context.Context) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", e.bin+string(filepath.Separator), "./cmd/fold3d", "./cmd/fold3dd")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building fold3d and fold3dd: %w\n%s", err, out)
	}
	return nil
}

// invocation is one finished child process.
type invocation struct {
	stdout, stderr []byte
	// wall is the elapsed time from start to exit, in seconds.
	wall float64
	// rssMB is the child's peak resident set.
	rssMB float64
}

// invoke runs bin to completion.
func invoke(ctx context.Context, bin string, args ...string) (invocation, error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t0 := time.Now()
	err := cmd.Run()
	inv := invocation{stdout: stdout.Bytes(), stderr: stderr.Bytes(), wall: time.Since(t0).Seconds(), rssMB: peakRSSMB(cmd.ProcessState)}
	if err != nil {
		return inv, fmt.Errorf("%s %s: %w: %s", filepath.Base(bin), strings.Join(args, " "), err, lastLine(stderr.String()))
	}
	return inv, nil
}

// peakRSSMB is an exited child's peak resident set (rusage Maxrss, which
// Linux reports in KiB).
func peakRSSMB(ps *os.ProcessState) float64 {
	if ps == nil {
		return 0
	}
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// lastLine returns the last non-empty line of s, for error messages.
func lastLine(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return lines[len(lines)-1]
}
