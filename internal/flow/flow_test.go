package flow

import (
	"testing"

	"fold3d/internal/core"
	"fold3d/internal/extract"
	"fold3d/internal/netlist"
	"fold3d/internal/t2"
	"fold3d/internal/tech"
)

func genBlocks(t *testing.T, names ...string) (*t2.Design, *Flow) {
	t.Helper()
	d, err := t2.Generate(t2.Config{Scale: 1000, Seed: 42, Only: names})
	if err != nil {
		t.Fatal(err)
	}
	return d, New(d, DefaultConfig())
}

func TestImplementBlock2D(t *testing.T) {
	d, fl := genBlocks(t, "L2T0")
	b := d.Blocks["L2T0"]
	r, err := fl.ImplementBlock(b, d.Specs["L2T0"].Aspect)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.NumCells != len(b.Cells) {
		t.Error("stats cell count mismatch")
	}
	if r.Stats.Footprint <= 0 || r.Stats.Wirelength <= 0 {
		t.Errorf("degenerate stats: %+v", r.Stats)
	}
	if r.Power.TotalMW <= 0 {
		t.Error("no power")
	}
	if r.Stats.NumBuffers == 0 {
		t.Error("flow inserted no repeaters at all")
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every cell inside the outline.
	for i := range b.Cells {
		if !b.Outline[0].ContainsRect(b.Cells[i].Rect().Expand(-1e-9)) {
			t.Fatalf("cell %s escaped the outline", b.Cells[i].Name)
		}
	}
	// Extraction ran: all signal nets have lengths.
	for i := range b.Nets {
		if b.Nets[i].Kind == netlist.Signal && len(b.Nets[i].Sinks) > 0 && b.Nets[i].WireCapfF < 0 {
			t.Fatal("negative wire cap")
		}
	}
}

func TestFoldAndImplementF2B(t *testing.T) {
	d, fl := genBlocks(t, "L2T0")
	b := d.Blocks["L2T0"].Clone()
	fo := core.DefaultFoldOptions()
	r, fr, err := fl.FoldAndImplement(b, fo, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Is3D {
		t.Fatal("block not 3D")
	}
	if b.NumTSV == 0 || b.NumTSV != fr.CutNets {
		t.Errorf("TSVs %d vs cut %d", b.NumTSV, fr.CutNets)
	}
	if len(b.TSVPads) != b.NumTSV {
		t.Error("pad count mismatch")
	}
	if r.Stats.NumF2F != 0 {
		t.Error("F2B fold must not report F2F vias")
	}
	// Footprint (per die) must be well below the 2D block's.
	b2 := d.Blocks["L2T0"].Clone()
	b2.Is3D = false
	r2, err := fl.ImplementBlock(b2, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.Footprint >= r2.Stats.Footprint*0.8 {
		t.Errorf("folding saved too little footprint: %v vs %v", r.Stats.Footprint, r2.Stats.Footprint)
	}
}

func TestFoldAndImplementF2F(t *testing.T) {
	d, _ := genBlocks(t, "L2T0")
	cfg := DefaultConfig()
	cfg.Bond = extract.F2F
	fl := New(d, cfg)
	b := d.Blocks["L2T0"].Clone()
	r, fr, err := fl.FoldAndImplement(b, core.DefaultFoldOptions(), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if b.NumF2F == 0 {
		t.Fatal("no F2F vias placed")
	}
	if len(b.TSVPads) != 0 {
		t.Error("F2F bonding must not create TSV pads")
	}
	if b.MaxRouteLayer != 9 {
		t.Error("F2F blocks use all nine metal layers (paper §6.1)")
	}
	_ = fr
	if r.Power.TotalMW <= 0 {
		t.Error("no power")
	}
}

func TestF2FBeatsF2BOnFootprint(t *testing.T) {
	// Paper Figure 6: F2F needs no silicon for vias, so the folded
	// footprint shrinks further. The L2T min-cut fold has enough 3D
	// connections for the TSV pad area to matter.
	d1, fl1 := genBlocks(t, "L2T0")
	bF2B := d1.Blocks["L2T0"].Clone()
	fo := core.DefaultFoldOptions()
	rF2B, _, err := fl1.FoldAndImplement(bF2B, fo, 0.63)
	if err != nil {
		t.Fatal(err)
	}
	d2, _ := genBlocks(t, "L2T0")
	cfg := DefaultConfig()
	cfg.Bond = extract.F2F
	fl2 := New(d2, cfg)
	bF2F := d2.Blocks["L2T0"].Clone()
	rF2F, _, err := fl2.FoldAndImplement(bF2F, fo, 0.63)
	if err != nil {
		t.Fatal(err)
	}
	if rF2F.Stats.Footprint > rF2B.Stats.Footprint {
		t.Errorf("F2F footprint %v above F2B %v", rF2F.Stats.Footprint, rF2B.Stats.Footprint)
	}
	if bF2B.NumTSV > 0 && rF2F.Stats.Footprint == rF2B.Stats.Footprint {
		t.Logf("note: footprints equal at the min outline; TSVs=%d", bF2B.NumTSV)
	}
}

func TestEstimateShapeCoversImplementation(t *testing.T) {
	d, fl := genBlocks(t, "L2B0")
	spec := d.Specs["L2B0"]
	w, h := fl.EstimateShape(spec, 1)
	b := d.Blocks["L2B0"]
	r := fl.ShapeForBlock(b, spec.Aspect)
	// The spec estimate must be at least as large as the actual-content
	// shape (it uses a conservative average cell area).
	if w*h < r.Area()*0.8 {
		t.Errorf("estimate %.0f um2 far below actual %.0f um2", w*h, r.Area())
	}
}

func TestDualVthFlowSwaps(t *testing.T) {
	d, _ := genBlocks(t, "L2B0")
	cfg := DefaultConfig()
	cfg.UseHVT = true
	fl := New(d, cfg)
	b := d.Blocks["L2B0"]
	r, err := fl.ImplementBlock(b, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if r.HVTSwapped == 0 || b.HVTFraction() == 0 {
		t.Error("dual-Vth flow swapped nothing")
	}
	if fl.VthOf() != tech.HVT {
		t.Error("VthOf wrong")
	}
}
