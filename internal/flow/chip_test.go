package flow

import (
	"fmt"
	"testing"

	"fold3d/internal/t2"
)

// styleKey names one chip buildStyle serves.
type styleKey struct {
	style t2.Style
	hvt   bool
}

// styleChips holds the chips buildStyle has built.
var styleChips lazy[styleKey, *ChipResult]

// buildStyle returns the full chip in the given style at the test scale,
// built on first request and shared read-only by every later one in the
// test binary; a failed build fails every test that asks for it.
func buildStyle(t *testing.T, style t2.Style, hvt bool) *ChipResult {
	t.Helper()
	r, err := styleChips.get(styleKey{style, hvt}, func() (*ChipResult, error) {
		d, err := t2.Generate(t2.Config{Scale: 1000, Seed: 42})
		if err != nil {
			return nil, err
		}
		cfg := DefaultConfig()
		cfg.UseHVT = hvt
		r, err := New(d, cfg).BuildChip(style)
		if err != nil {
			return nil, fmt.Errorf("BuildChip(%s): %w", style, err)
		}
		return r, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestBuildChip2D(t *testing.T) {
	if testing.Short() {
		t.Skip("full-chip build")
	}
	t.Parallel()
	r := buildStyle(t, t2.Style2D, false)
	if len(r.Blocks) != 46 {
		t.Fatalf("blocks = %d", len(r.Blocks))
	}
	if r.Stats.TSVInter != 0 || r.Stats.ViasIntraDrawn != 0 {
		t.Error("2D chip must have no 3D vias")
	}
	if r.Stats.FootprintMM2 <= 0 || r.Power.TotalMW <= 0 {
		t.Error("degenerate chip stats")
	}
	if len(r.ChipNets) == 0 {
		t.Fatal("no chip-level nets")
	}
	for i := range r.ChipNets {
		cn := &r.ChipNets[i]
		if cn.A.Port >= 0 && cn.B.Port >= 0 && cn.RouteLen <= 0 {
			t.Fatalf("chip net %d has no route", i)
		}
		if cn.Crossings != 0 {
			t.Error("2D chip nets cannot cross dies")
		}
	}
}

func TestBuildChipCoreCacheVs2D(t *testing.T) {
	if testing.Short() {
		t.Skip("full-chip build")
	}
	t.Parallel()
	r2 := buildStyle(t, t2.Style2D, false)
	r3 := buildStyle(t, t2.StyleCoreCache, false)
	// Paper Table 2 shape: the stack halves the footprint (~-46%) and saves
	// wirelength and power.
	fpPct := r3.Stats.FootprintMM2 / r2.Stats.FootprintMM2
	if fpPct > 0.62 || fpPct < 0.40 {
		t.Errorf("3D footprint ratio = %.2f, want ~0.54", fpPct)
	}
	if r3.Stats.WirelengthM >= r2.Stats.WirelengthM {
		t.Error("3D stacking must reduce total wirelength")
	}
	if r3.Power.TotalMW >= r2.Power.TotalMW {
		t.Error("3D stacking must reduce total power")
	}
	if r3.Stats.TSVInter == 0 {
		t.Error("core/cache stacking needs inter-block TSVs")
	}
}

func TestBuildChipFoldedStyles(t *testing.T) {
	if testing.Short() {
		t.Skip("full-chip build")
	}
	t.Parallel()
	r2 := buildStyle(t, t2.Style2D, false)
	rb := buildStyle(t, t2.StyleFoldF2B, false)
	rf := buildStyle(t, t2.StyleFoldF2F, false)

	// Folded blocks occupy both dies.
	for _, name := range []string{"SPC0", "CCX", "L2D0", "L2T0", "MAC"} {
		b := rb.Blocks[name].Block
		if !b.Is3D {
			t.Errorf("%s not folded in fold style", name)
		}
	}
	if rb.Blocks["NCU"].Block.Is3D {
		t.Error("NCU must not fold")
	}
	// F2B folding uses TSVs, F2F uses F2F vias.
	if rb.Blocks["L2T0"].Block.NumTSV == 0 || rb.Blocks["L2T0"].Block.NumF2F != 0 {
		t.Error("fold-F2B via bookkeeping wrong")
	}
	if rf.Blocks["L2T0"].Block.NumF2F == 0 || rf.Blocks["L2T0"].Block.NumTSV != 0 {
		t.Error("fold-F2F via bookkeeping wrong")
	}
	// The paper's headline: folding with F2F beats everything on power.
	if rf.Power.TotalMW >= r2.Power.TotalMW {
		t.Error("fold-F2F must beat 2D on power")
	}
	if rf.Power.TotalMW >= rb.Power.TotalMW {
		t.Error("F2F bonding must beat F2B for the folded chip (paper §5-6)")
	}
	// SPC second-level folding happened: FUBs split across dies.
	spc := rf.Blocks["SPC0"].Block
	split := map[string][2]int{}
	for i := range spc.Cells {
		s := split[spc.Cells[i].Group]
		s[spc.Cells[i].Die]++
		split[spc.Cells[i].Group] = s
	}
	folded := 0
	for _, g := range t2.SPCFUBs() {
		if g.Fold {
			s := split[g.Name]
			if s[0] > 0 && s[1] > 0 {
				folded++
			}
		}
	}
	if folded < 5 {
		t.Errorf("only %d of 6 FUBs split across dies", folded)
	}
}

func TestBuildChipDualVthBenefit(t *testing.T) {
	if testing.Short() {
		t.Skip("full-chip build")
	}
	t.Parallel()
	rvt := buildStyle(t, t2.StyleFoldF2F, false)
	dvt := buildStyle(t, t2.StyleFoldF2F, true)
	if dvt.Power.TotalMW >= rvt.Power.TotalMW {
		t.Error("dual-Vth must reduce power")
	}
	if dvt.Stats.NumHVT == 0 {
		t.Error("no HVT cells in the DVT build")
	}
	if dvt.Power.LeakageMW >= rvt.Power.LeakageMW {
		t.Error("dual-Vth must reduce leakage")
	}
}

func TestBuildChipNeedsFullDesign(t *testing.T) {
	d, err := t2.Generate(t2.Config{Scale: 1000, Seed: 42, Only: []string{"CCX"}})
	if err != nil {
		t.Fatal(err)
	}
	fl := New(d, DefaultConfig())
	if _, err := fl.BuildChip(t2.Style2D); err == nil {
		t.Error("expected error for partial design")
	}
}
