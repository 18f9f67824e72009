package thermal

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"fold3d/internal/errs"
)

// lcg is a tiny deterministic generator for synthetic thermal problems —
// test-local so the suite never depends on math/rand ordering.
type lcg uint64

func (r *lcg) next() float64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return float64(*r>>11) / float64(1<<53)
}

// synthCase is one synthetic tile-network problem, shaped like one of the
// five chip styles: grid size, die count, bond-style vertical coupling and
// a power distribution.
type synthCase struct {
	name       string
	nx, ny     int
	dies       int
	vertBase   float64 // uniform bond conductance multiplier (x gLat scale)
	tsvSpikes  int     // random TSV conductance spikes (F2B-like)
	bottomBias float64 // fraction of power forced onto die 0 (core/cache-like)
}

// synthStyles mirrors the five design styles' thermal shapes.
var synthStyles = []synthCase{
	{name: "2D", nx: 24, ny: 24, dies: 1},
	{name: "fold-F2B", nx: 24, ny: 24, dies: 2, vertBase: 1, tsvSpikes: 24},
	{name: "fold-F2F", nx: 24, ny: 24, dies: 2, vertBase: 1.8},
	{name: "core-cache", nx: 32, ny: 32, dies: 2, vertBase: 1, tsvSpikes: 12, bottomBias: 0.8},
	{name: "core-core", nx: 48, ny: 24, dies: 2, vertBase: 1, tsvSpikes: 48},
}

const synthTileAreaM2 = 5e-8

// buildSynth assembles the case's power and vertical-conductance arrays:
// solveReference takes them directly, and loadSynth feeds them to an Engine.
func buildSynth(c synthCase, seed uint64, p Params) (pw [2][]float64, vertK []float64) {
	r := lcg(seed*2654435761 + 97)
	n := c.nx * c.ny
	for d := 0; d < c.dies; d++ {
		pw[d] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		w := 0.012 * r.next()
		if c.dies == 1 {
			pw[0][i] = w
			continue
		}
		lo := c.bottomBias
		if lo == 0 {
			lo = 0.5
		}
		pw[0][i] = w * lo
		pw[1][i] = w * (1 - lo)
	}
	vertK = make([]float64, n)
	base := c.vertBase * 9000 * synthTileAreaM2
	for i := range vertK {
		vertK[i] = base
	}
	for s := 0; s < c.tsvSpikes; s++ {
		i := int(r.next() * float64(n))
		if i >= n {
			i = n - 1
		}
		vertK[i] += 2.4e-5 * 30
	}
	return pw, vertK
}

// loadSynth initializes e with the synthetic problem.
func loadSynth(tb testing.TB, e *Engine, c synthCase, pw [2][]float64, vertK []float64, p Params) {
	tb.Helper()
	if err := e.ReinitGrid(c.nx, c.ny, c.dies, synthTileAreaM2, p); err != nil {
		tb.Fatal(err)
	}
	for iy := 0; iy < c.ny; iy++ {
		for ix := 0; ix < c.nx; ix++ {
			i := iy*c.nx + ix
			for d := 0; d < c.dies; d++ {
				e.AddPower(d, ix, iy, pw[d][i])
			}
		}
	}
	if c.dies == 2 {
		base := vertK[0]
		e.SetUniformVertK(base)
		for iy := 0; iy < c.ny; iy++ {
			for ix := 0; ix < c.nx; ix++ {
				if dk := vertK[iy*c.nx+ix] - base; dk != 0 {
					e.AddVertKAt(ix, iy, dk)
				}
			}
		}
	}
}

// maxTileDiff returns the largest per-tile absolute temperature difference.
func maxTileDiff(a, b *Result) float64 {
	var worst float64
	for d := 0; d < a.Dies; d++ {
		for i := range a.MapC[d] {
			if dl := math.Abs(a.MapC[d][i] - b.MapC[d][i]); dl > worst {
				worst = dl
			}
		}
	}
	return worst
}

// TestEngineMatchesReference is the solver property suite: across all five
// style shapes and three seeds, the multigrid engine must agree with the
// Gauss-Seidel reference (both run to a tightened tolerance so the oracle
// itself is sharp) tile by tile.
func TestEngineMatchesReference(t *testing.T) {
	p := DefaultParams()
	for _, c := range synthStyles {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", c.name, seed), func(t *testing.T) {
				pw, vertK := buildSynth(c, seed, p)
				ref := solveReference(pw, c.nx, c.ny, c.dies, synthTileAreaM2, vertK, p, 1e-8, 400000)
				e := NewEngine()
				e.tol = 1e-8
				loadSynth(t, e, c, pw, vertK, p)
				got, err := e.Solve()
				if err != nil {
					t.Fatal(err)
				}
				if got.Dies != ref.Dies || got.NX != ref.NX || got.NY != ref.NY {
					t.Fatalf("shape mismatch: got %dx%d x%d, ref %dx%d x%d",
						got.NX, got.NY, got.Dies, ref.NX, ref.NY, ref.Dies)
				}
				if d := maxTileDiff(got, ref); d > 1e-3 {
					t.Errorf("max tile diff %.3g C above 1e-3", d)
				}
				if d := math.Abs(got.TMaxC - ref.TMaxC); d > 1e-3 {
					t.Errorf("TMax diff %.3g C (mg %.4f, gs %.4f)", d, got.TMaxC, ref.TMaxC)
				}
				if d := math.Abs(got.TAvgC - ref.TAvgC); d > 1e-3 {
					t.Errorf("TAvg diff %.3g C (mg %.4f, gs %.4f)", d, got.TAvgC, ref.TAvgC)
				}
			})
		}
	}
}

// TestIncrementalMatchesFull applies a TSV-insertion batch after a full
// solve and requires Resolve's answer to match a from-scratch engine given
// the same final problem.
func TestIncrementalMatchesFull(t *testing.T) {
	p := DefaultParams()
	for _, c := range synthStyles {
		if c.dies != 2 {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			pw, vertK := buildSynth(c, 7, p)
			e := NewEngine()
			e.tol = 1e-7
			loadSynth(t, e, c, pw, vertK, p)
			base, err := e.Solve()
			if err != nil {
				t.Fatal(err)
			}
			// A thermal-via batch near the grid center.
			edits := [][3]int{{0, 0, 0}, {1, 1, 0}, {0, 2, 1}, {2, 0, 2}}
			cx, cy := c.nx/2, c.ny/2
			const dk = 2.4e-5 * 30
			for _, ed := range edits {
				e.AddVertKAt(cx+ed[1], cy+ed[2], dk)
				vertK[(cy+ed[2])*c.nx+cx+ed[1]] += dk
			}
			inc, err := e.Resolve()
			if err != nil {
				t.Fatal(err)
			}
			fresh := NewEngine()
			fresh.tol = 1e-7
			loadSynth(t, fresh, c, pw, vertK, p)
			full, err := fresh.Solve()
			if err != nil {
				t.Fatal(err)
			}
			if d := maxTileDiff(inc, full); d > 5e-3 {
				t.Errorf("incremental vs full max tile diff %.3g C above 5e-3", d)
			}
			// The batch added vertical conductance only; the incremental
			// answer must not report a hotter stack than before the vias.
			if inc.TMaxC > base.TMaxC+1e-6 {
				t.Errorf("thermal vias raised TMax: %.4f -> %.4f", base.TMaxC, inc.TMaxC)
			}
		})
	}
}

// TestIncrementalSublinear pins the incremental re-solve's complexity: the
// same one-TSV edit on a 16x-larger grid may cost at most a small constant
// more relaxation work, and far less than its own full solve. Work is
// counted in relaxation updates (Relaxations), not wall-clock.
func TestIncrementalSublinear(t *testing.T) {
	p := DefaultParams()
	cost := func(n int) (edit, full int64) {
		c := synthCase{name: "sub", nx: n, ny: n, dies: 2, vertBase: 1}
		pw, vertK := buildSynth(c, 3, p)
		e := NewEngine()
		loadSynth(t, e, c, pw, vertK, p)
		if _, err := e.Solve(); err != nil {
			t.Fatal(err)
		}
		full = e.Relaxations()
		e.AddVertKAt(n/2, n/2, 2.4e-5*30)
		if _, err := e.Resolve(); err != nil {
			t.Fatal(err)
		}
		edit = e.Relaxations() - full
		return edit, full
	}
	editSmall, _ := cost(32)
	editBig, fullBig := cost(128)
	if editBig > 4*editSmall {
		t.Errorf("incremental work grew with grid size: %d updates at 128x128 vs %d at 32x32 (16x the tiles)",
			editBig, editSmall)
	}
	if editBig*4 > fullBig {
		t.Errorf("incremental re-solve (%d updates) is not clearly cheaper than the full solve (%d)",
			editBig, fullBig)
	}
}

// TestEngineDeterministicAndReusable solves the same problem on a fresh
// engine and on one recycled from a different problem (the pooling path)
// and requires byte-identical Result fingerprints.
func TestEngineDeterministicAndReusable(t *testing.T) {
	p := DefaultParams()
	c := synthStyles[1]
	pw, vertK := buildSynth(c, 11, p)
	fresh := NewEngine()
	loadSynth(t, fresh, c, pw, vertK, p)
	a, err := fresh.Solve()
	if err != nil {
		t.Fatal(err)
	}
	recycled := NewEngine()
	other := synthStyles[3]
	opw, ovk := buildSynth(other, 5, p)
	loadSynth(t, recycled, other, opw, ovk, p)
	if _, err := recycled.Solve(); err != nil {
		t.Fatal(err)
	}
	loadSynth(t, recycled, c, pw, vertK, p)
	b, err := recycled.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("fresh and recycled engines disagree: %s vs %s", a.Fingerprint(), b.Fingerprint())
	}
}

// TestBrokenRestrictionCaught seeds a deliberate bug — a sign-flipped
// restriction operator — and requires the fine-grid tolerance check to
// refuse to return an unconverged field (or, if convergence survives, the
// field to still match the reference: the guard's contract is that a broken
// coarse hierarchy can cost speed but never correctness).
func TestBrokenRestrictionCaught(t *testing.T) {
	p := DefaultParams()
	c := synthStyles[1]
	pw, vertK := buildSynth(c, 2, p)
	e := NewEngine()
	loadSynth(t, e, c, pw, vertK, p)
	e.restrictScale = -1
	got, err := e.Solve()
	if err != nil {
		return // the guard fired, as expected
	}
	ref := solveReference(pw, c.nx, c.ny, c.dies, synthTileAreaM2, vertK, p, 1e-7, 400000)
	if d := maxTileDiff(got, ref); d > 1e-2 {
		t.Fatalf("broken restriction returned a wrong field (max tile diff %.3g C) without an error", d)
	}
}

// TestParamsValidate exercises the negated-range validation: NaN, ±Inf,
// zero and negative conductances/thickness must all fail, naming the field
// and wrapping both sentinels.
func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("default params rejected: %v", err)
	}
	cases := []struct {
		field string
		set   func(*Params, float64)
	}{
		{"KSinkWPerM2K", func(p *Params, v float64) { p.KSinkWPerM2K = v }},
		{"KLateralWPerMK", func(p *Params, v float64) { p.KLateralWPerMK = v }},
		{"KBondBaseWPerM2K", func(p *Params, v float64) { p.KBondBaseWPerM2K = v }},
		{"KTSVWPerK", func(p *Params, v float64) { p.KTSVWPerK = v }},
		{"KBoardWPerM2K", func(p *Params, v float64) { p.KBoardWPerM2K = v }},
		{"DieThicknessUm", func(p *Params, v float64) { p.DieThicknessUm = v }},
	}
	bad := []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, c := range cases {
		for _, v := range bad {
			p := DefaultParams()
			c.set(&p, v)
			err := p.Validate()
			if err == nil {
				t.Errorf("%s=%g accepted", c.field, v)
				continue
			}
			if !errors.Is(err, errs.ErrBadOptions) || !errors.Is(err, errs.ErrBadRequest) {
				t.Errorf("%s=%g: error does not wrap both sentinels: %v", c.field, v, err)
			}
			if want := c.field; !contains(err.Error(), want) {
				t.Errorf("%s=%g: error %q does not name the field", c.field, v, err)
			}
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), -300, 501} {
		p := DefaultParams()
		p.AmbientC = v
		if p.Validate() == nil {
			t.Errorf("AmbientC=%g accepted", v)
		}
	}
	// ReinitGrid funnels the same validation.
	e := NewEngine()
	p := DefaultParams()
	p.KSinkWPerM2K = math.NaN()
	if err := e.ReinitGrid(8, 8, 1, 1e-8, p); !errors.Is(err, errs.ErrBadOptions) {
		t.Errorf("ReinitGrid accepted NaN sink conductance: %v", err)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestSolveReference2DMapNil is the MapC regression: a single-die solve must
// leave the second die's map nil — Dies is authoritative, not the fixed
// array size.
func TestSolveReference2DMapNil(t *testing.T) {
	c := synthStyles[0]
	p := DefaultParams()
	pw, vertK := buildSynth(c, 1, p)
	ref := solveReference(pw, c.nx, c.ny, 1, synthTileAreaM2, vertK, p, 1e-4, 4000)
	if ref.Dies != 1 {
		t.Fatalf("Dies = %d, want 1", ref.Dies)
	}
	if ref.MapC[1] != nil {
		t.Errorf("reference 2D solve allocated MapC[1] (len %d)", len(ref.MapC[1]))
	}
	e := NewEngine()
	loadSynth(t, e, c, pw, vertK, p)
	got, err := e.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if got.MapC[1] != nil {
		t.Errorf("engine 2D solve allocated MapC[1] (len %d)", len(got.MapC[1]))
	}
}
