package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The fixture tests of the three dataflow checks (nondetflow, ctxflow,
// lockbalance), plus the seeded-bug tests: for each check, a mutation the
// syntax-level suite provably misses (zero findings) that the dataflow
// check catches.

func TestNondetFlowFixture(t *testing.T) {
	_, p := loadFixture(t, "nondetflow", "fixture/nondetflow")
	cfg := DefaultConfig()
	cfg.AlgoPackages = append(cfg.AlgoPackages, "fixture/nondetflow")
	checkFixture(t, cfg, p, []*Check{NondetFlowCheck()})
}

func TestCtxFlowFixture(t *testing.T) {
	_, p := loadFixture(t, "ctxflow", "fixture/ctxflow")
	cfg := DefaultConfig()
	cfg.CtxPackages = append(cfg.CtxPackages, "fixture/ctxflow")
	checkFixture(t, cfg, p, []*Check{CtxFlowCheck()})
}

func TestCtxFlowOffOutsideCtxPackages(t *testing.T) {
	_, p := loadFixture(t, "ctxflow", "fixture/elsewhere")
	findings := Run(DefaultConfig(), []*Package{p}, []*Check{CtxFlowCheck()})
	if len(findings) != 0 {
		t.Errorf("ctxflow must be scoped to CtxPackages, got %d findings", len(findings))
	}
}

func TestLockBalanceFixture(t *testing.T) {
	_, p := loadFixture(t, "lockbalance", "fixture/lockbalance")
	checkFixture(t, DefaultConfig(), p, []*Check{LockBalanceCheck()})
}

// loadSrc type-checks one inline source file as its own package.
func loadSrc(t *testing.T, name, src string) *Package {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, name+".go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	l := newLoader(t, ".")
	p, err := l.LoadDir(dir, name)
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	return p
}

// expectSeeded asserts the syntax-level suite reports nothing on p while
// the dataflow check reports a finding matching want.
func expectSeeded(t *testing.T, cfg *Config, p *Package, check *Check, want string) {
	t.Helper()
	syntax := []*Check{DeterminismCheck(), MapIterCheck(), FloatCmpCheck(), ErrDropCheck()}
	if fs := Run(cfg, []*Package{p}, syntax); len(fs) != 0 {
		t.Fatalf("seeded bug is visible to the syntax suite (test is vacuous): %v", fs)
	}
	fs := Run(cfg, []*Package{p}, []*Check{check})
	found := false
	for _, f := range fs {
		if strings.Contains(f.Message, want) {
			found = true
		}
	}
	if !found {
		t.Errorf("%s missed the seeded bug; want message containing %q, got %v", check.Name, want, fs)
	}
}

// TestSeededNondetFlow: a map-ordered value reaches a fingerprint through
// one intermediate function. No append inside the range, so mapiter is
// blind; no banned import or call, so determinism is blind.
func TestSeededNondetFlow(t *testing.T) {
	p := loadSrc(t, "seednondet", `// Package seednondet is a seeded-bug fixture.
package seednondet

// Hasher mimics the pipeline hasher.
type Hasher struct{ data []string }

// Str mixes a string.
func (h *Hasher) Str(s string) { h.data = append(h.data, s) }

func maxKey(m map[string]int) string {
	best := ""
	for k := range m {
		if k > best {
			best = k
		}
	}
	return best
}

func hashMax(h *Hasher, m map[string]int) {
	h.Str(maxKey(m))
}
`)
	cfg := DefaultConfig()
	cfg.AlgoPackages = append(cfg.AlgoPackages, "seednondet")
	expectSeeded(t, cfg, p, NondetFlowCheck(), "ordered by random map iteration")
}

// TestSeededCtxFlow: the received ctx is shadowed by context.Background()
// before the blocking hand-off. Purely a dataflow property; the syntax
// suite has no rule that could see it.
func TestSeededCtxFlow(t *testing.T) {
	p := loadSrc(t, "seedctx", `// Package seedctx is a seeded-bug fixture.
package seedctx

import "context"

func handoff(ctx context.Context, ch chan int) int {
	ctx = context.Background()
	select {
	case v := <-ch:
		return v
	case <-ctx.Done():
		return 0
	}
}
`)
	cfg := DefaultConfig()
	cfg.CtxPackages = append(cfg.CtxPackages, "seedctx")
	expectSeeded(t, cfg, p, CtxFlowCheck(), "rebound to a dead context")
}

// TestSeededLockBalance: an early return leaks the mutex on one CFG path —
// invisible without path-sensitive lock-state tracking.
func TestSeededLockBalance(t *testing.T) {
	p := loadSrc(t, "seedlock", `// Package seedlock is a seeded-bug fixture.
package seedlock

import "sync"

type box struct {
	mu sync.Mutex
	n  int
}

func bump(b *box, skip bool) int {
	b.mu.Lock()
	if skip {
		return 0
	}
	b.n++
	b.mu.Unlock()
	return b.n
}
`)
	expectSeeded(t, DefaultConfig(), p, LockBalanceCheck(), "not released on every path")
}
