package lint

import (
	"go/importer"
	"go/token"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// Every loader in the test binary shares one file set and one GOROOT
// source importer, so the standard library is type-checked once per
// binary, not once per test. The importer is not documented as safe for
// concurrent use, so the lint tests stay sequential.
var (
	testFset = token.NewFileSet()
	testStd  = importer.ForCompiler(testFset, "source", nil)
)

// newLoader is NewLoader on the test binary's shared file set and
// standard-library importer.
func newLoader(t *testing.T, dir string) *Loader {
	t.Helper()
	l, err := NewLoader(dir)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	l.fset, l.std = testFset, testStd
	return l
}

// The loader edge cases: build-constraint-excluded files, _test.go
// variants, and packages that fail to type-check must be skipped or
// reported — never panic, never silently poison the rest of the module.

// otherGOOS returns a GOOS different from the running one, for file-name
// suffix tests.
func otherGOOS() string {
	if runtime.GOOS == "windows" {
		return "linux"
	}
	return "windows"
}

func TestParseDirSkipsExcludedFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("keep.go", "// Package edge is a loader fixture.\npackage edge\n\nfunc keep() {}\n")
	// Every other file would break the package if parsed or type-checked.
	write("tagged.go", "//go:build ignore\n\npackage edge\n\nfunc keep() {}\n")
	write("osfile_"+otherGOOS()+".go", "package edge\n\nfunc keep() {}\n")
	write("osarch_"+otherGOOS()+"_"+runtime.GOARCH+".go", "package edge\n\nfunc keep() {}\n")
	write("broken_test.go", "package edge\n\nfunc (")
	write("_underscore.go", "package wrong\n")
	write(".hidden.go", "package wrong\n")
	write("notgo.txt", "not go at all")

	l := newLoader(t, ".")
	p, err := l.LoadDir(dir, "edge")
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if len(p.Files) != 1 {
		t.Fatalf("got %d files, want only keep.go", len(p.Files))
	}
}

func TestParseDirKeepsSatisfiedConstraints(t *testing.T) {
	dir := t.TempDir()
	src := "//go:build " + runtime.GOOS + " || " + otherGOOS() + "\n\n" +
		"// Package edge is a loader fixture.\npackage edge\n\nfunc keep() {}\n"
	if err := os.WriteFile(filepath.Join(dir, "tagged.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	l := newLoader(t, ".")
	p, err := l.LoadDir(dir, "edge")
	if err != nil {
		t.Fatalf("LoadDir rejected a satisfied //go:build constraint: %v", err)
	}
	if len(p.Files) != 1 {
		t.Fatalf("got %d files, want 1", len(p.Files))
	}
}

func TestLoadDirTypeErrorIsAnErrorNotAPanic(t *testing.T) {
	dir := t.TempDir()
	src := "// Package edge is a loader fixture.\npackage edge\n\nvar x undefinedType\n"
	if err := os.WriteFile(filepath.Join(dir, "bad.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	l := newLoader(t, ".")
	if _, err := l.LoadDir(dir, "edge"); err == nil || !strings.Contains(err.Error(), "type-checking") {
		t.Fatalf("want a type-checking error, got %v", err)
	}
}

// TestLoadModuleReportsBrokenPackages builds a throwaway module with one
// good and one broken package: LoadModule must return the good one and
// record — not abort on, not panic on — the broken one.
func TestLoadModuleReportsBrokenPackages(t *testing.T) {
	root := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module tmod\n\ngo 1.21\n")
	write("good/good.go", "// Package good compiles.\npackage good\n\nfunc ok() {}\n")
	write("badtype/bad.go", "// Package badtype has a type error.\npackage badtype\n\nvar x undefinedType\n")
	write("badparse/bad.go", "package badparse\n\nfunc (")

	l := newLoader(t, root)
	pkgs, err := l.LoadModule(nil)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "tmod/good" {
		t.Fatalf("got packages %v, want only tmod/good", pkgs)
	}
	errs := l.Errors()
	if len(errs) != 2 {
		t.Fatalf("got %d load errors, want 2 (parse + type): %v", len(errs), errs)
	}
	joined := strings.Join(errs, "\n")
	for _, want := range []string{"badtype", "bad.go"} {
		if !strings.Contains(joined, want) {
			t.Errorf("load errors missing %q:\n%s", want, joined)
		}
	}
}
