package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"manualhijack/internal/core"
)

type declared struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	return f
}

func specsOf(ds []declared) []spec {
	var s []spec
	for _, d := range ds {
		s = append(s, spec{d.Name, d.Unit, d.Better})
	}
	return s
}

// TestBenchmarkFileMatchesCatalog keeps BENCHMARK.json and the metrics the
// benchmark prints in step.
func TestBenchmarkFileMatchesCatalog(t *testing.T) {
	f := readBenchmarkFile(t)
	if got := specsOf(f.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end_to_end = %v, catalog has %v", got, endToEnd)
	}
	if got := specsOf(f.PerLayer); !reflect.DeepEqual(got, perLayer()) {
		t.Errorf("per_layer = %v\ncatalog has %v", got, perLayer())
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json workloads %v, perfbench has %d", names, len(workloads))
	}
	for _, d := range f.EndToEnd {
		if d.Bound == nil || *d.Bound <= 0 || *d.Bound > 0.25 {
			t.Errorf("end-to-end %s bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range f.PerLayer {
		if d.Bound != nil {
			t.Errorf("per-layer %s has a bound", d.Name)
		}
	}
}

// TestRegistryCovered fails when the analysis registry changes, so the
// per-entry fold metrics follow it.
func TestRegistryCovered(t *testing.T) {
	var names []string
	for _, a := range core.Registry() {
		if !a.NeedsDir {
			names = append(names, a.Name)
		}
	}
	if !reflect.DeepEqual(names, registryEntries) {
		t.Errorf("core.Registry() = %v, registryEntries = %v", names, registryEntries)
	}
}

func TestBuildKeepsCatalog(t *testing.T) {
	m, err := build(endToEnd, values{"wall_s": 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != len(endToEnd) || m["wall_s"] != (metric{1.5, "s"}) || m["setup_s"] != (metric{0, "s"}) {
		t.Errorf("build = %v", m)
	}
	if _, err := build(endToEnd, values{"wal_s": 1}); err == nil {
		t.Error("build accepted a metric outside the catalog")
	}
}

func TestCatalogNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range append(append([]spec(nil), endToEnd...), perLayer()...) {
		if seen[s.Name] {
			t.Errorf("metric %s declared twice", s.Name)
		}
		seen[s.Name] = true
	}
	if len(perLayer()) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(perLayer()))
	}
}

func TestResultLine(t *testing.T) {
	var sb strings.Builder
	r := result{Correct: true, Attempted: 3, Failed: 1, Metrics: map[string]metric{"wall_s": {2.25, "s"}}}
	if err := writeResult(&sb, r); err != nil {
		t.Fatal(err)
	}
	want := `{"correct":true,"attempted":3,"failed":1,"metrics":{"wall_s":{"value":2.25,"unit":"s"}}}` + "\n"
	if sb.String() != want {
		t.Errorf("result line %q, want %q", sb.String(), want)
	}
}
