package flow

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"fold3d/internal/designio"
	"fold3d/internal/place"
	"fold3d/internal/t2"
)

// chipFingerprint builds the full chip in the given style from a fresh
// generated design with the given worker count and renders everything the
// experiments report — chip stats, power, per-block results, serialized
// Verilog and DEF, chip-net routes — into one byte string.
func chipFingerprint(t *testing.T, style t2.Style, seed uint64, workers int) string {
	return chipFingerprintCfg(t, style, seed, workers, nil)
}

// chipFingerprintCfg is chipFingerprint with a config hook applied after
// the defaults, for tests that flip flow options (e.g. Opt.FullRecompute).
func chipFingerprintCfg(t *testing.T, style t2.Style, seed uint64, workers int, mut func(*Config)) string {
	t.Helper()
	fp, err := renderChip(style, seed, workers, mut)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// renderChip builds the chip chipFingerprintCfg describes and renders its
// fingerprint, returning any failure instead of ending the test, so a
// shared reference build can hand its error to every test that asked.
func renderChip(style t2.Style, seed uint64, workers int, mut func(*Config)) (string, error) {
	d, err := t2.Generate(t2.Config{Scale: 1000, Seed: seed})
	if err != nil {
		return "", err
	}
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.Workers = workers
	if mut != nil {
		mut(&cfg)
	}
	fl := New(d, cfg)
	r, err := fl.BuildChip(style)
	if err != nil {
		return "", fmt.Errorf("BuildChip(%s): %w", style, err)
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "stats %+v\n", r.Stats)
	fmt.Fprintf(&sb, "power %+v\n", r.Power)
	fmt.Fprintf(&sb, "chipnetpower %+v\n", r.ChipNetPower)
	names := make([]string, 0, len(r.Blocks))
	for name := range r.Blocks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		br := r.Blocks[name]
		fmt.Fprintf(&sb, "block %s power=%+v wns=%v tns=%v reps=%d hvt=%d\n",
			name, br.Power, br.Timing.WNS, br.Timing.TNS, br.RepeatersInserted, br.HVTSwapped)
		if err := designio.WriteVerilog(&sb, br.Block, br.Block.Is3D); err != nil {
			return "", fmt.Errorf("WriteVerilog(%s): %w", name, err)
		}
		if err := designio.WriteDEF(&sb, br.Block, -1, br.Block.Is3D); err != nil {
			return "", fmt.Errorf("WriteDEF(%s): %w", name, err)
		}
	}
	for i := range r.ChipNets {
		cn := &r.ChipNets[i]
		fmt.Fprintf(&sb, "chipnet %d len=%v crossings=%d\n", i, cn.RouteLen, cn.Crossings)
	}
	return sb.String(), nil
}

// TestSeedStability is the determinism regression test behind the repo's
// bit-reproducibility promise (and fold3dlint's determinism/mapiter
// checks): the same seed must produce byte-identical results end to end —
// generation, partitioning, placement, CTS, optimization, extraction, STA,
// power — twice in the same process. A diff here means ambient
// nondeterminism (map iteration order, global randomness) leaked into the
// flow.
func TestSeedStability(t *testing.T) {
	if testing.Short() {
		t.Skip("two full-chip builds")
	}
	t.Parallel()
	// The core/cache style stacks whole blocks on two dies without folding
	// any: it exercises the two-die floorplan, inter-block TSV insertion
	// and chip-level routing across dies. a is the shared reference build;
	// b must be a fresh one, because a rebuild in the same process is what
	// this test checks.
	a := refFingerprint(t, t2.StyleCoreCache, 42, place.DefaultBackend)
	b := chipFingerprint(t, t2.StyleCoreCache, 42, 1)
	if a != b {
		t.Fatalf("same seed produced different results:\n%s", firstDiff(a, b))
	}

	// And a different seed must actually change something, or the
	// fingerprint is vacuous.
	c := refFingerprint(t, t2.StyleCoreCache, 43, place.DefaultBackend)
	if a == c {
		t.Fatal("different seeds produced byte-identical results; fingerprint is not sensitive")
	}
}

// firstDiff renders the first divergent line of two multi-line strings.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  run1: %s\n  run2: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}
