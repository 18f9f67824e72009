package flow

import (
	"sync"
	"testing"

	"fold3d/internal/t2"
)

// lazy is a read-only map whose values are built on first request, once
// per test binary: concurrent requests for one key wait for a single
// build and all receive its value and error. Values are shared, so
// callers must not mutate them.
type lazy[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]func() (V, error)
}

// get returns the value for k, running build on the first request only.
func (l *lazy[K, V]) get(k K, build func() (V, error)) (V, error) {
	l.mu.Lock()
	f, ok := l.m[k]
	if !ok {
		if l.m == nil {
			l.m = map[K]func() (V, error){}
		}
		f = sync.OnceValues(build)
		l.m[k] = f
	}
	l.mu.Unlock()
	return f()
}

// refKey names one reference chip.
type refKey struct {
	style  t2.Style
	seed   uint64
	placer string
}

// refChips holds the fingerprints of the reference chips.
var refChips lazy[refKey, string]

// refFingerprint returns the chipFingerprintCfg rendering of the uncached
// Workers=1 build of style at seed under placer: the reference every
// equivalence test compares a cached, parallel or otherwise configured
// build against. The chip is built on first request and shared by every
// later one in the test binary; a failed build fails every test that
// asks for it.
func refFingerprint(t *testing.T, style t2.Style, seed uint64, placer string) string {
	t.Helper()
	fp, err := refChips.get(refKey{style, seed, placer}, func() (string, error) {
		return renderChip(style, seed, 1, withPlacer(placer))
	})
	if err != nil {
		t.Fatalf("reference chip %s seed %d placer %s: %v", style, seed, placer, err)
	}
	return fp
}
