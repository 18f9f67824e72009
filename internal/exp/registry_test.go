package exp

import (
	"context"
	"errors"
	"testing"

	"fold3d/internal/errs"
	"fold3d/internal/pipeline"
)

// canonicalOrder is the committed registry order: the paper's report order
// (tables, then figures, then ablations and future-work studies). Reports
// print in this order at any worker count, so reordering the registry is a
// user-visible output change and must be deliberate.
var canonicalOrder = []string{
	"table1", "table2", "table3", "table4", "table5",
	"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
	"dualvth", "macromode", "criteria", "thermal", "coupling", "rsmt",
	"headtohead",
}

func TestGeneratorsCanonicalOrder(t *testing.T) {
	gens := Generators()
	if len(gens) != len(canonicalOrder) {
		t.Fatalf("registry has %d generators, want %d", len(gens), len(canonicalOrder))
	}
	for i, g := range gens {
		if g.Name != canonicalOrder[i] {
			t.Errorf("generators[%d] = %q, want %q", i, g.Name, canonicalOrder[i])
		}
	}
}

func TestGeneratorsReturnsCopy(t *testing.T) {
	a := Generators()
	a[0].Name = "clobbered"
	if b := Generators(); b[0].Name != canonicalOrder[0] {
		t.Fatalf("mutating the returned slice leaked into the registry: %q", b[0].Name)
	}
}

func TestGeneratorsHaveDocsAndRun(t *testing.T) {
	for _, g := range Generators() {
		if g.Doc == "" {
			t.Errorf("generator %q has an empty Doc", g.Name)
		}
		if g.Run == nil {
			t.Errorf("generator %q has a nil Run", g.Name)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range canonicalOrder {
		g, ok := ByName(name)
		if !ok || g.Name != name {
			t.Errorf("ByName(%q) = %q, %v", name, g.Name, ok)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName(nope) should miss")
	}
}

func TestRunAllUnknownExperiment(t *testing.T) {
	_, err := RunAll(context.Background(), DefaultConfig(), []string{"table2", "bogus"}, nil)
	if err == nil {
		t.Fatal("RunAll with a bad name must fail")
	}
	if !errors.Is(err, errs.ErrUnknownExperiment) {
		t.Errorf("error %v does not match ErrUnknownExperiment", err)
	}
	if !errors.Is(err, errs.ErrBadRequest) {
		t.Errorf("error %v does not match ErrBadRequest", err)
	}
	if got := err.Error(); got != `exp: bad request: unknown experiment: no experiment "bogus"` {
		t.Errorf("error text = %q", got)
	}
}

// TestConfigValidate pins the option-validation contract: out-of-range
// values fail fast wrapping both ErrBadRequest (transport classification)
// and ErrBadOptions (the historical sentinel), and the zero values that
// mean "use the default" stay valid.
func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero config", Config{}, true},
		{"defaults", DefaultConfig(), true},
		{"explicit scale", Config{Scale: 500}, true},
		{"scale below 1", Config{Scale: 0.5}, false},
		{"negative scale", Config{Scale: -3}, false},
		{"negative workers", Config{Workers: -1}, false},
		{"force placer", Config{Placer: "force"}, true},
		{"analytical placer", Config{Placer: "analytical"}, true},
		{"unknown placer", Config{Placer: "bogus"}, false},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: Validate() = %v, want nil", c.name, err)
		}
		if !c.ok {
			if err == nil {
				t.Errorf("%s: Validate() = nil, want error", c.name)
				continue
			}
			if !errors.Is(err, errs.ErrBadRequest) || !errors.Is(err, errs.ErrBadOptions) {
				t.Errorf("%s: error %v must match ErrBadRequest and ErrBadOptions", c.name, err)
			}
		}
	}
}

// TestRunAllValidatesConfig checks that RunAll rejects a bad configuration
// before running any generator.
func TestRunAllValidatesConfig(t *testing.T) {
	ran := false
	_, err := RunAll(context.Background(), Config{Workers: -2}, []string{"table1"},
		func(*Result, error) { ran = true })
	if !errors.Is(err, errs.ErrBadRequest) {
		t.Fatalf("RunAll with workers=-2: err = %v, want ErrBadRequest", err)
	}
	if ran {
		t.Error("a generator ran despite failed validation")
	}
}

// TestRunAllSharesCache pins the RunAll cache contract: a nil cfg.Cache is
// replaced by a fresh shared cache, and a caller-supplied cache is used as
// is (table1 is pure, so this stays cheap — the point is the wiring, the
// cross-experiment reuse itself is covered by TestCacheCrossStyleReuse).
func TestRunAllSharesCache(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Cache != nil {
		t.Fatal("DefaultConfig should not pre-bind a cache")
	}
	res, err := RunAll(context.Background(), cfg, []string{"table1"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0] == nil || res[0].Name != "table1" {
		t.Fatalf("results = %+v", res)
	}
}

// TestGeneratorsHonorCanceledContext runs every registered generator under
// an already-canceled context. Each must either finish without building
// anything (no flow reached the cache) or fail with an error matching
// errs.ErrCanceled: fold3dd's job runner classifies a job as canceled,
// not failed, by exactly that match.
func TestGeneratorsHonorCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, g := range Generators() {
		t.Run(g.Name, func(t *testing.T) {
			cache := pipeline.NewCache(pipeline.CacheOptions{})
			_, err := g.Run(ctx, Config{Scale: 1000, Seed: 42, Workers: 1, Cache: cache})
			if err == nil {
				if st := cache.Stats(); st.Misses != 0 || st.Stores != 0 {
					t.Errorf("succeeded under a canceled context after building: %s", st)
				}
			} else if !errors.Is(err, errs.ErrCanceled) {
				t.Errorf("err = %v, want one matching errs.ErrCanceled", err)
			}
		})
	}
}
