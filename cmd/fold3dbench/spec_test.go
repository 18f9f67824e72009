package main

import (
	"os"
	"strings"
	"testing"
)

// TestSpecMatchesTables keeps BENCHMARK.json, the metric tables the driver
// emits and README.md in step: the same workloads and metrics in the same
// order with the same units and directions, bounds within the contract,
// and every name documented.
func TestSpecMatchesTables(t *testing.T) {
	s, err := readSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Paths) != 1 || s.Paths[0] != "cmd/fold3dbench" {
		t.Errorf("paths = %v, want [cmd/fold3dbench]", s.Paths)
	}
	if strings.Join(s.Command, " ") != "bash cmd/fold3dbench/run.sh" {
		t.Errorf("command = %q", s.Command)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := func(name string) {
		if !strings.Contains(string(readme), "`"+name+"`") {
			t.Errorf("README.md does not document %s", name)
		}
	}

	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the driver %d", len(s.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if s.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, driver %q", i, s.Workloads[i].Name, w.name)
		}
		documented(w.name)
	}

	if len(s.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the driver %d", len(s.EndToEnd), len(e2eMetrics))
	}
	var setupBound, maxOther float64
	for i, m := range e2eMetrics {
		b := s.EndToEnd[i]
		if (metricDef{b.Name, b.Unit, b.Better}) != m {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, driver %+v", i, b, m)
		}
		if !(b.Bound > 0 && b.Bound <= 0.25) {
			t.Errorf("%s: bound %g outside (0, 0.25]", b.Name, b.Bound)
		}
		if b.Name == "setup_s" {
			setupBound = b.Bound
		} else if b.Bound > maxOther {
			maxOther = b.Bound
		}
		documented(b.Name)
	}
	if setupBound < maxOther {
		t.Errorf("setup_s bound %g is not the largest (%g)", setupBound, maxOther)
	}

	if len(s.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the driver %d", len(s.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		l := s.PerLayer[i]
		if (metricDef{l.Name, l.Unit, l.Better}) != m {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, driver %+v", i, l, m)
		}
		documented(l.Name)
	}
}
