package lint

import "testing"

// TestRepoIsLintClean is the tier-1 gate: every package of the fold3d
// module must type-check and pass every check of the suite. A failure here
// means either a genuine policy violation (fix the code) or an intentional
// exception that needs a //lint:ignore <check> <reason> directive at the
// site.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checking the whole module is not short")
	}
	l := newLoader(t, ".")
	pkgs, err := l.LoadModule(nil)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	// A package that fails to type-check would otherwise be skipped
	// silently; the nested cmd/fold3dbench module is built by no other
	// tier-1 step.
	for _, e := range l.Errors() {
		t.Errorf("load error: %s", e)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; module walk is broken", len(pkgs))
	}
	for _, f := range Run(DefaultConfig(), pkgs, AllChecks()) {
		t.Errorf("%s", f)
	}
}
