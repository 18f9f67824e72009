package lint

import (
	"fmt"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// wantRe extracts the expectation regex from a // want `...` annotation.
var wantRe = regexp.MustCompile("// want `([^`]+)`")

// loadFixture loads testdata/src/<dir> under the given import path.
func loadFixture(t *testing.T, dir, importPath string) (*Loader, *Package) {
	t.Helper()
	l := newLoader(t, ".")
	p, err := l.LoadDir(filepath.Join("testdata", "src", dir), importPath)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", dir, err)
	}
	return l, p
}

// wantKey identifies one expected diagnostic.
type wantKey struct {
	file string
	line int
}

// collectWants parses every want annotation in the fixture package.
func collectWants(p *Package) map[wantKey][]string {
	wants := map[wantKey][]string{}
	for _, file := range p.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				k := wantKey{pos.Filename, pos.Line}
				wants[k] = append(wants[k], m[1])
			}
		}
	}
	return wants
}

// checkFixture runs checks over the fixture and verifies findings match the
// want annotations exactly (every want matched, every finding wanted).
func checkFixture(t *testing.T, cfg *Config, p *Package, checks []*Check) {
	t.Helper()
	findings := Run(cfg, []*Package{p}, checks)
	wants := collectWants(p)

	matched := map[int]bool{} // finding index -> consumed
	for k, patterns := range wants {
		for _, pat := range patterns {
			re, err := regexp.Compile(pat)
			if err != nil {
				t.Fatalf("bad want regex %q: %v", pat, err)
			}
			found := false
			for i, f := range findings {
				if matched[i] || f.Pos.Filename != k.file || f.Pos.Line != k.line {
					continue
				}
				if re.MatchString(f.Message) {
					matched[i] = true
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s:%d: expected finding matching %q, got none", filepath.Base(k.file), k.line, pat)
			}
		}
	}
	for i, f := range findings {
		if !matched[i] {
			t.Errorf("unexpected finding: %s", f)
		}
	}
}

func TestDeterminismFixture(t *testing.T) {
	_, p := loadFixture(t, "determinism", "fixture/determinism")
	cfg := DefaultConfig()
	cfg.AlgoPackages = append(cfg.AlgoPackages, "fixture/determinism")
	checkFixture(t, cfg, p, []*Check{DeterminismCheck()})
}

func TestDeterminismSkipsNonAlgoPackages(t *testing.T) {
	// Outside algorithm packages the import/call rules are off, but the
	// goroutine rule still applies: only the Spawn fixture line may fire.
	_, p := loadFixture(t, "determinism", "fixture/other")
	fs := Run(DefaultConfig(), []*Package{p}, []*Check{DeterminismCheck()})
	if len(fs) != 1 || !strings.Contains(fs[0].Message, "bare go statement") {
		t.Errorf("non-algo package: want only the goroutine finding, got %v", fs)
	}
}

func TestDeterminismGoroutineAllow(t *testing.T) {
	_, p := loadFixture(t, "determinism", "fixture/other")
	cfg := DefaultConfig()
	cfg.GoroutineAllow = append(cfg.GoroutineAllow, "fixture/other")
	fs := Run(cfg, []*Package{p}, []*Check{DeterminismCheck()})
	if len(fs) != 0 {
		t.Errorf("sanctioned package still flagged: %v", fs)
	}
}

func TestServerExemptFlaggedElsewhere(t *testing.T) {
	// The scheduler/accept-loop goroutine shapes of the fold3dd daemon are
	// ordinary findings in a package that is not on the allow list.
	_, p := loadFixture(t, "serverexempt", "fixture/serverexempt")
	checkFixture(t, DefaultConfig(), p, []*Check{DeterminismCheck()})
}

func TestServerExemptSanctionedPackages(t *testing.T) {
	// The same source is clean under the import paths the repo policy
	// exempts: the jobs scheduler and the daemon binary.
	for _, path := range []string{"fold3d/internal/jobs", "fold3d/cmd/fold3dd"} {
		_, p := loadFixture(t, "serverexempt", path)
		if fs := Run(DefaultConfig(), []*Package{p}, []*Check{DeterminismCheck()}); len(fs) != 0 {
			t.Errorf("%s: server exemption not honored: %v", path, fs)
		}
	}
}

func TestMapIterFixture(t *testing.T) {
	_, p := loadFixture(t, "mapiter", "fixture/mapiter")
	checkFixture(t, DefaultConfig(), p, []*Check{MapIterCheck()})
}

func TestFloatCmpFixture(t *testing.T) {
	_, p := loadFixture(t, "floatcmp", "fixture/floatcmp")
	checkFixture(t, DefaultConfig(), p, []*Check{FloatCmpCheck()})
}

func TestErrDropFixture(t *testing.T) {
	_, p := loadFixture(t, "errdrop", "fixture/errdrop")
	checkFixture(t, DefaultConfig(), p, []*Check{ErrDropCheck()})
}

// checkCallBanFixture runs apiguard over testdata/src/<dir> with the
// shipped call ban whose pattern matches callee (a real function's full
// name) widened to the fixture, so the fixture exercises that exact row.
func checkCallBanFixture(t *testing.T, dir, callee string) {
	t.Helper()
	_, p := loadFixture(t, dir, "fixture/"+dir)
	cfg := DefaultConfig()
	i := slices.IndexFunc(cfg.CallBans, func(b CallBan) bool { return b.Callee.MatchString(callee) })
	if i < 0 {
		t.Fatalf("no default call ban matches %s", callee)
	}
	cfg.CallBans[i].Scope = append(cfg.CallBans[i].Scope, p.Path)
	checkFixture(t, cfg, p, []*Check{APIGuardCheck()})
}

func TestSTAEngineFixture(t *testing.T) {
	checkCallBanFixture(t, "staengine", "fold3d/internal/sta.Analyze")
}

func TestSTAEngineOffByDefaultElsewhere(t *testing.T) {
	// Without the package in the sta.Analyze ban's scope the same source is
	// clean (the fixture path is outside internal/, so the doc/panic rules
	// stay off too).
	_, p := loadFixture(t, "staengine", "fixture/staengine-off")
	fs := Run(DefaultConfig(), []*Package{p}, []*Check{APIGuardCheck()})
	if len(fs) != 0 {
		t.Errorf("unrestricted package flagged: %v", fs)
	}
}

func TestPipelineOnlyFixture(t *testing.T) {
	checkCallBanFixture(t, "pipeline", "(*fold3d/internal/flow.chipState).stageFold")
}

func TestPipelineOnlyOffByDefaultElsewhere(t *testing.T) {
	// Without the package in the stage-call ban's scope the same source is
	// clean (the fixture path is outside internal/, so the doc/panic rules
	// stay off too).
	_, p := loadFixture(t, "pipeline", "fixture/pipeline-off")
	fs := Run(DefaultConfig(), []*Package{p}, []*Check{APIGuardCheck()})
	if len(fs) != 0 {
		t.Errorf("unrestricted package flagged: %v", fs)
	}
}

func TestIndexedScanFixture(t *testing.T) {
	_, p := loadFixture(t, "indexedscan", "fixture/indexedscan")
	cfg := DefaultConfig()
	cfg.IndexedScanOnly = append(cfg.IndexedScanOnly, "fixture/indexedscan")
	checkFixture(t, cfg, p, []*Check{APIGuardCheck()})
}

func TestIndexedScanOffByDefaultElsewhere(t *testing.T) {
	// Without the package on the IndexedScanOnly list the same source is
	// clean (the fixture path is outside internal/, so the doc/panic rules
	// stay off too).
	_, p := loadFixture(t, "indexedscan", "fixture/indexedscan-off")
	fs := Run(DefaultConfig(), []*Package{p}, []*Check{APIGuardCheck()})
	if len(fs) != 0 {
		t.Errorf("unrestricted package flagged: %v", fs)
	}
}

func TestBackendRegistryFixture(t *testing.T) {
	checkCallBanFixture(t, "backendregistry", "fold3d/internal/place.New")
}

func TestBackendRegistryOffByDefaultElsewhere(t *testing.T) {
	// Without the package in the backend-constructor ban's scope the same
	// source is clean (the fixture path is outside internal/, so the
	// doc/panic rules stay off too).
	_, p := loadFixture(t, "backendregistry", "fixture/backendregistry-off")
	fs := Run(DefaultConfig(), []*Package{p}, []*Check{APIGuardCheck()})
	if len(fs) != 0 {
		t.Errorf("unrestricted package flagged: %v", fs)
	}
}

func TestAPIGuardFixture(t *testing.T) {
	_, p := loadFixture(t, "apiguard", "fixture/internal/apiguard")
	checkFixture(t, DefaultConfig(), p, []*Check{APIGuardCheck()})
}

func TestIgnoreDirectives(t *testing.T) {
	_, p := loadFixture(t, "ignore", "fixture/internal/ignorefix")
	findings := Run(DefaultConfig(), []*Package{p}, []*Check{FloatCmpCheck()})

	// The two reasoned directives suppress their findings; the wrong-check
	// and missing-reason cases survive, and the reasonless directive is
	// itself reported.
	var floatcmps, malformed int
	for _, f := range findings {
		switch f.Check {
		case "floatcmp":
			floatcmps++
		case "ignore":
			malformed++
			if !strings.Contains(f.Message, "missing a reason") {
				t.Errorf("unexpected ignore finding: %s", f)
			}
		default:
			t.Errorf("unexpected check %q: %s", f.Check, f)
		}
	}
	if floatcmps != 2 {
		t.Errorf("got %d surviving floatcmp findings, want 2:\n%s", floatcmps, renderAll(findings))
	}
	if malformed != 1 {
		t.Errorf("got %d malformed-directive findings, want 1:\n%s", malformed, renderAll(findings))
	}
}

// TestIgnoreMultiLineAttribution pins the directive-coverage rules for the
// two shapes the line+1 heuristic used to miss: a reason wrapped onto
// continuation comment lines, and a finding anchored on an inner line of a
// multi-line statement. It also pins that coverage stops at the statement.
func TestIgnoreMultiLineAttribution(t *testing.T) {
	p := loadSrc(t, "igspan", `// Package igspan is an ignore-attribution fixture.
package igspan

func wrapped(a, b float64) bool {
	//lint:ignore floatcmp the reason for this one wraps onto a
	// second comment line, which must not detach the directive
	// from the statement below.
	return a == b
}

func inner(a, b float64) []bool {
	//lint:ignore floatcmp the finding sits on an inner line of this
	// multi-line composite literal.
	out := []bool{
		a == b,
	}
	return out
}

func leak(a, b float64) bool {
	//lint:ignore floatcmp covers only the next statement
	_ = a == b
	return a == b
}
`)
	findings := Run(DefaultConfig(), []*Package{p}, []*Check{FloatCmpCheck()})
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want exactly the uncovered one in leak:\n%s", len(findings), renderAll(findings))
	}
	if !strings.Contains(findings[0].Pos.String(), "igspan.go:23") {
		t.Errorf("surviving finding at %s, want the return in leak (line 23)", findings[0].Pos)
	}
}

// renderAll formats findings for failure messages.
func renderAll(fs []Finding) string {
	var sb strings.Builder
	for _, f := range fs {
		fmt.Fprintf(&sb, "  %s\n", f)
	}
	return sb.String()
}

func TestCheckByName(t *testing.T) {
	for _, c := range AllChecks() {
		got := CheckByName(c.Name)
		if got == nil || got.Name != c.Name {
			t.Errorf("CheckByName(%q) = %v", c.Name, got)
		}
	}
	if CheckByName("nope") != nil {
		t.Errorf("CheckByName(nope) should be nil")
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{Check: "floatcmp", Message: "boom"}
	f.Pos.Filename = "x.go"
	f.Pos.Line = 3
	f.Pos.Column = 7
	if got, want := f.String(), "x.go:3:7: [floatcmp] boom"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestMatchAny(t *testing.T) {
	cases := []struct {
		patterns []string
		rel      string
		want     bool
	}{
		{nil, "internal/place", true},
		{[]string{"..."}, "internal/place", true},
		{[]string{"./..."}, "internal/place", true},
		{[]string{"internal/place"}, "internal/place", true},
		{[]string{"internal/place"}, "internal/power", false},
		{[]string{"internal/..."}, "internal/place", true},
		{[]string{"internal/..."}, "cmd/fold3d", false},
		{[]string{"cmd/..."}, "cmd/fold3d", true},
	}
	for _, c := range cases {
		if got := matchAny(c.patterns, c.rel); got != c.want {
			t.Errorf("matchAny(%v, %q) = %v, want %v", c.patterns, c.rel, got, c.want)
		}
	}
}
