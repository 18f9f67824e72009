package main

import (
	"bufio"
	"sort"
	"strings"
	"testing"

	"fold3d/internal/exp"
	"fold3d/internal/place"
)

// TestListExperimentsSorted pins the -list contract: one line per
// registered experiment, sorted by name, each carrying its doc string,
// followed by one trailer line naming every placement backend.
func TestListExperimentsSorted(t *testing.T) {
	var sb strings.Builder
	listExperiments(&sb)

	var names []string
	trailer := ""
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "placement backends") {
			trailer = sc.Text()
			continue
		}
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 {
			t.Fatalf("line %q lacks a doc string", sc.Text())
		}
		names = append(names, fields[0])
	}
	if len(names) != len(exp.Generators()) {
		t.Fatalf("listed %d experiments, registry has %d", len(names), len(exp.Generators()))
	}
	if trailer == "" {
		t.Fatal("-list output lacks the placement-backends trailer")
	}
	for _, b := range place.BackendNames() {
		if !strings.Contains(trailer, b) {
			t.Errorf("backends trailer %q missing %q", trailer, b)
		}
	}
	if !strings.Contains(trailer, "default "+place.DefaultBackend) {
		t.Errorf("backends trailer %q does not name the default", trailer)
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("-list output is not sorted: %v", names)
	}
	for _, g := range exp.Generators() {
		if !strings.Contains(sb.String(), g.Name) {
			t.Errorf("-list output missing %q", g.Name)
		}
	}
}

// TestRunExitCodes pins the CLI's exit statuses: 2 for a bad flag or
// option, rejected before any work starts; 1 for a failed run; 0 for
// success.
func TestRunExitCodes(t *testing.T) {
	cases := []struct {
		name           string
		args           []string
		want           int
		stdout, stderr string // substrings the streams must contain
	}{
		{"unknown placer", []string{"-exp", "table4", "-placer", "simulated-annealing"}, 2, "", "simulated-annealing"},
		{"tmax without thermal", []string{"-exp", "thermal", "-tmax", "85"}, 2, "", "require -thermal"},
		{"impossible tmax", []string{"-exp", "thermal", "-thermal", "-tmax", "20"}, 2, "", "TMaxBudgetC"},
		{"negative workers", []string{"-workers", "-1"}, 2, "", "workers must be >= 0"},
		{"unknown experiment", []string{"-exp", "nope"}, 1, "", `no experiment "nope"`},
		{"list", []string{"-list"}, 0, "placement backends (-placer)", ""},
		{"help", []string{"-h"}, 0, "", "Usage of"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			if got := run(tc.args, &stdout, &stderr); got != tc.want {
				t.Fatalf("run(%q) = %d, want %d; stderr:\n%s", tc.args, got, tc.want, stderr.String())
			}
			if !strings.Contains(stdout.String(), tc.stdout) {
				t.Errorf("stdout %q does not mention %q", stdout.String(), tc.stdout)
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr %q does not mention %q", stderr.String(), tc.stderr)
			}
		})
	}
}
