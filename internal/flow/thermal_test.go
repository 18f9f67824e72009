package flow

import (
	"errors"
	"math"
	"testing"

	"fold3d/internal/core"
	"fold3d/internal/errs"
	"fold3d/internal/pipeline"
	"fold3d/internal/place"
	"fold3d/internal/t2"
	"fold3d/internal/thermal"
)

// withThermal returns a config hook enabling in-loop thermal planning.
func withThermal(tc ThermalConfig) func(*Config) {
	tc.Enable = true
	return func(c *Config) { c.Thermal = tc }
}

func TestThermalConfigValidate(t *testing.T) {
	if err := (ThermalConfig{}).Validate(); err != nil {
		t.Fatalf("zero (disabled) config rejected: %v", err)
	}
	// Disabled configs skip field checks entirely: garbage is inert.
	if err := (ThermalConfig{TMaxBudgetC: -1e9, ViaBudget: -5}).Validate(); err != nil {
		t.Fatalf("disabled config with junk fields rejected: %v", err)
	}
	if err := (ThermalConfig{Enable: true}).Validate(); err != nil {
		t.Fatalf("enabled defaults rejected: %v", err)
	}
	for name, tc := range map[string]ThermalConfig{
		"budget below ambient": {Enable: true, TMaxBudgetC: 20},
		"budget negative":      {Enable: true, TMaxBudgetC: -40},
		"budget NaN":           {Enable: true, TMaxBudgetC: math.NaN()},
		"budget absurd":        {Enable: true, TMaxBudgetC: 5000},
		"vias negative":        {Enable: true, ViaBudget: -1},
		"weight negative":      {Enable: true, TempWeightPerC: -0.1},
		"weight NaN":           {Enable: true, TempWeightPerC: math.NaN()},
		"bad params":           {Enable: true, Params: thermal.Params{AmbientC: math.Inf(1)}},
	} {
		err := tc.Validate()
		if !errors.Is(err, errs.ErrBadRequest) || !errors.Is(err, errs.ErrBadOptions) {
			t.Errorf("%s: err = %v, want ErrBadRequest+ErrBadOptions", name, err)
		}
	}
}

// TestThermalViasInserted pins the stage's visible effect: a folded F2B
// block built under an enabled thermal config carries more TSV pads than
// the thermal-blind build (dummy vias over the hotspots), up to the
// configured budget, and still validates.
func TestThermalViasInserted(t *testing.T) {
	d, _ := genBlocks(t, "L2T0")
	cold := d.Blocks["L2T0"].Clone()
	fl := New(d, DefaultConfig())
	if _, _, err := fl.FoldAndImplement(cold, core.DefaultFoldOptions(), 1.0); err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig()
	cfg.Thermal = ThermalConfig{Enable: true, ViaBudget: 8}
	hot := d.Blocks["L2T0"].Clone()
	if _, _, err := New(d, cfg).FoldAndImplement(hot, core.DefaultFoldOptions(), 1.0); err != nil {
		t.Fatal(err)
	}
	extra := hot.NumTSV - cold.NumTSV
	if extra <= 0 {
		t.Fatalf("thermal flow added no vias: %d vs %d TSVs", hot.NumTSV, cold.NumTSV)
	}
	if extra > 8 {
		t.Fatalf("thermal flow added %d vias, over the budget of 8", extra)
	}
	if len(hot.TSVPads) != hot.NumTSV {
		t.Errorf("pad count %d != NumTSV %d", len(hot.TSVPads), hot.NumTSV)
	}
	if err := hot.Validate(); err != nil {
		t.Fatalf("block invalid after thermal vias: %v", err)
	}
}

// TestThermalOffFingerprintIdentity pins the backward half of the thermal
// contract: a config whose thermal block is disabled — even with junk in
// its other fields — registers no stage, shares every cache key with a
// config that never mentions thermal, and produces byte-identical chips.
func TestThermalOffFingerprintIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("full-chip builds")
	}
	t.Parallel()
	cache := pipeline.NewCache(pipeline.CacheOptions{})
	legacy := chipFingerprintCfg(t, t2.StyleFoldF2B, 42, 1, func(c *Config) {
		c.Cache = cache
	})
	stores := cache.Stats().Stores

	disabled := chipFingerprintCfg(t, t2.StyleFoldF2B, 42, 1, func(c *Config) {
		c.Cache = cache
		c.Thermal = ThermalConfig{TMaxBudgetC: 85, ViaBudget: 999} // Enable false
	})
	if legacy != disabled {
		t.Fatalf("disabled thermal config diverged from legacy config:\n%s", firstDiff(legacy, disabled))
	}
	st := cache.Stats()
	if st.Stores != stores {
		t.Errorf("disabled thermal config stored %d new entries; its keys must equal the legacy keys", st.Stores-stores)
	}
	if st.Hits == 0 {
		t.Error("disabled thermal config never hit the legacy-keyed cache")
	}
}

// TestThermalFingerprintEquivalence extends the worker-pool determinism
// contract to thermal-enabled builds: Workers=1 and Workers=4 must produce
// byte-identical chips, and the thermal chip must differ from the
// thermal-blind one (the vias are real work, not a no-op).
func TestThermalFingerprintEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full-chip builds")
	}
	t.Parallel()
	tc := ThermalConfig{TMaxBudgetC: 85, ViaBudget: 8}
	seq := chipFingerprintCfg(t, t2.StyleFoldF2B, 42, 1, withThermal(tc))
	par := chipFingerprintCfg(t, t2.StyleFoldF2B, 42, 4, withThermal(tc))
	if seq != par {
		t.Errorf("thermal Workers=1 vs Workers=4 fingerprints differ:\n%s", firstDiff(seq, par))
	}
	blind := refFingerprint(t, t2.StyleFoldF2B, 42, place.DefaultBackend)
	if seq == blind {
		t.Error("thermal-enabled chip is byte-identical to the thermal-blind chip; the via stage never ran")
	}
}

// TestThermalStageOnlyOnFoldedF2B pins the stage's registration scope: a
// 2D chip build under an enabled thermal config is byte-identical to the
// thermal-blind build — no block is folded F2B, so no stage registers.
func TestThermalStageOnlyOnFoldedF2B(t *testing.T) {
	if testing.Short() {
		t.Skip("full-chip builds")
	}
	t.Parallel()
	on := chipFingerprintCfg(t, t2.Style2D, 42, 1, withThermal(ThermalConfig{ViaBudget: 8}))
	off := refFingerprint(t, t2.Style2D, 42, place.DefaultBackend)
	if on != off {
		t.Errorf("thermal config changed a 2D chip:\n%s", firstDiff(on, off))
	}
}
