package pipeline

import (
	"math"
	"strings"
	"testing"
)

// TestHasherStreamPinned pins the exact byte stream of every Hasher write
// method through the digest of one fixed sequence. Result fingerprints
// (jobs.fingerprintResults), routing fingerprints (jobs.Request.Fingerprint)
// and thermal field digests are built from these methods, and fold3dbench
// pins 384 serve fingerprints made by them, so a change to any frame — a
// tag, a length width, the batching of long strings — must fail here rather
// than silently move a published fingerprint. The sequence crosses the
// 512-byte batch buffer several times and includes one string longer than
// the buffer, so both the batched and the direct write paths are covered.
func TestHasherStreamPinned(t *testing.T) {
	h := NewHasher()
	h.Str("fold3d")
	h.Int(-7)
	h.Uint(1<<63 + 5)
	h.F64(math.Copysign(0, -1))
	h.F64(math.Pi)
	h.Bool(true)
	h.Bool(false)
	h.Str("")
	const mid = "4a31c3bc777b3db965525e9297c0fd3f52fd5ca4ee9cfc64776a1343b0efc74d"
	if got := h.Sum(); got != mid {
		t.Errorf("mid-stream Sum = %s, want %s", got, mid)
	}
	for i := 0; i < 40; i++ {
		h.Str(strings.Repeat("x", i))
		h.Int(i * 1000003)
		h.F64(float64(i) / 3)
		h.Bool(i%3 == 0)
	}
	h.Str(strings.Repeat("0123456789abcdef", 48)) // 768 bytes > the 512-byte buffer
	h.Uint(math.MaxUint64)
	h.Str("tail")
	const final = "7e9185e9f97f2d2e771945d3a09c95ab49d88f492f71cb54cf5ae604c8da92d8"
	if got := h.Sum(); got != final {
		t.Errorf("final Sum = %s, want %s", got, final)
	}
}
