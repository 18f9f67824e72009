package lint

import "testing"

// BenchmarkLintRepo measures the full fold3dlint path over the whole
// module: loading (parallel parse, sequential type-check) plus every check
// of the suite running through the worker pool. This is the number the
// pre-PR gate (scripts/check.sh) pays on each run.
func BenchmarkLintRepo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		l, err := NewLoader(".")
		if err != nil {
			b.Fatal(err)
		}
		pkgs, err := l.LoadModule(nil)
		if err != nil {
			b.Fatal(err)
		}
		if errs := l.Errors(); len(errs) != 0 {
			b.Fatalf("load errors: %v", errs)
		}
		if fs := Run(DefaultConfig(), pkgs, AllChecks()); len(fs) != 0 {
			b.Fatalf("repo not lint-clean during benchmark: %v", fs[0])
		}
	}
}
