package flow

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"fold3d/internal/errs"
	"fold3d/internal/place"
	"fold3d/internal/t2"
)

// TestParallelFingerprintEquivalence is the determinism contract of the
// worker pool: building the chip with Workers=1 (the strictly sequential
// legacy path) and Workers=4 must produce byte-identical results for
// every design style. Per-block seeding and the sorted-name merge make
// the outcome independent of completion order. The Workers=1 side is the
// shared reference chip.
func TestParallelFingerprintEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("ten full-chip builds")
	}
	t.Parallel()
	styles := []t2.Style{t2.Style2D, t2.StyleCoreCache, t2.StyleCoreCore, t2.StyleFoldF2B, t2.StyleFoldF2F}
	for _, style := range styles {
		t.Run(style.String(), func(t *testing.T) {
			t.Parallel()
			seq := refFingerprint(t, style, 42, place.DefaultBackend)
			par := chipFingerprint(t, style, 42, 4)
			if seq != par {
				t.Errorf("Workers=1 vs Workers=4 fingerprints differ:\n%s", firstDiff(seq, par))
			}
		})
	}
}

// buildCtx builds the full chip under ctx and returns the error.
func buildCtx(t *testing.T, ctx context.Context, cfg Config) error {
	t.Helper()
	d, err := t2.Generate(t2.Config{Scale: 1000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(d, cfg).BuildChipContext(ctx, t2.StyleCoreCache)
	return err
}

// TestBuildChipCancellation cancels mid-build — from the progress hook,
// after the first implemented block — and expects a prompt ErrCanceled
// that also matches the context cause.
func TestBuildChipCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cfg := DefaultConfig()
		cfg.Workers = workers
		cfg.Progress = func(p Progress) {
			if p.Stage == StageImplement {
				cancel()
			}
		}
		start := time.Now()
		err := buildCtx(t, ctx, cfg)
		elapsed := time.Since(start)
		cancel()
		if !errors.Is(err, errs.ErrCanceled) {
			t.Errorf("workers=%d: got %v, want ErrCanceled", workers, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: %v does not match context.Canceled", workers, err)
		}
		// Generous bound: a canceled build must not run anywhere near the
		// ~40 remaining blocks (a full build takes well under a minute).
		if elapsed > 30*time.Second {
			t.Errorf("workers=%d: canceled build took %v; cancellation is not prompt", workers, elapsed)
		}
	}
}

// TestBuildChipPreCanceled runs zero blocks when the context is already
// dead.
func TestBuildChipPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := DefaultConfig()
	implemented := 0
	cfg.Progress = func(p Progress) {
		if p.Stage == StageImplement {
			implemented++
		}
	}
	err := buildCtx(t, ctx, cfg)
	if !errors.Is(err, errs.ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
	if implemented != 0 {
		t.Errorf("%d blocks implemented under a pre-canceled context", implemented)
	}
}

// TestProgressEvents checks the progress stream of a successful build:
// serialized callbacks, one implement event per block with Done reaching
// Total, and a final done stage.
func TestProgressEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("full-chip build")
	}
	t.Parallel()
	var mu sync.Mutex
	var events []Progress
	cfg := DefaultConfig()
	cfg.Workers = 4
	cfg.Progress = func(p Progress) {
		mu.Lock()
		events = append(events, p)
		mu.Unlock()
	}
	if err := buildCtx(t, context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	var implement, total int
	var sawDone bool
	maxDone := 0
	for _, p := range events {
		switch p.Stage {
		case StageImplement:
			implement++
			total = p.Total
			if p.Done > maxDone {
				maxDone = p.Done
			}
			if p.Block == "" {
				t.Error("implement event without a block name")
			}
		case StageDone:
			sawDone = true
		}
	}
	if implement == 0 || implement != total || maxDone != total {
		t.Errorf("implement events = %d, max Done = %d, Total = %d; want all equal and nonzero", implement, maxDone, total)
	}
	if !sawDone {
		t.Error("no done stage event")
	}
	if events[len(events)-1].Stage != StageDone {
		t.Errorf("last event stage = %s, want %s", events[len(events)-1].Stage, StageDone)
	}
}
