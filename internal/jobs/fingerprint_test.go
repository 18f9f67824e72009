package jobs

import (
	"testing"

	"fold3d/internal/exp"
)

// TestFingerprintsPinned pins the routing fingerprint of a plain and of a
// thermal request, and the result fingerprint of a fixed result slice, to
// their published values. Both are built from pipeline.Hasher writes, and
// fold3dbench pins 384 serve result fingerprints, so a change to the
// hasher's byte stream, or to the field order hashed here, must fail in
// tier-1 rather than move every fleet's routing and every stored result.
func TestFingerprintsPinned(t *testing.T) {
	plain := Request{Experiments: []string{"table4", "fig2"}, Seed: 3, Workers: 2, Tenant: "acme"}
	if got, want := plain.Fingerprint(), "13e2bb41b8399d3eac90c98e5b01e5963bdf39dbf27357ccd714fa9cfbb23faf"; got != want {
		t.Errorf("plain request Fingerprint = %s, want %s", got, want)
	}
	thermal := Request{Experiments: []string{"thermal"}, Scale: 500,
		Thermal: &ThermalSpec{TMaxC: 85, Vias: 200, TempWeightPerC: 0.25}}
	if got, want := thermal.Fingerprint(), "c12ef17aeffe1943d0c02d9154ae42ed55c404e25be255dd1fab2e2c833f3218"; got != want {
		t.Errorf("thermal request Fingerprint = %s, want %s", got, want)
	}
	results := []*exp.Result{
		{Name: "table4", Report: "Table 4\nblock  power\nCCX    1.25 mW\n"},
		{Name: "fig2", Report: "Figure 2\n", Files: map[string]string{
			"fig2_top.svg": "<svg>top</svg>",
			"fig2_bot.svg": "<svg>bot</svg>",
		}},
	}
	if got, want := fingerprintResults(results), "c222edcadc666b220aae9188140bd8bdf5a427de5439b1f2c55d73d5265b28d8"; got != want {
		t.Errorf("fingerprintResults = %s, want %s", got, want)
	}
}
