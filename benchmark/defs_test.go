package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from defs.go")

// runSeconds is BENCHMARK.json's run_seconds: the window the bounds in
// defs.go were measured with.
const runSeconds = 20

type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDef  `json:"workloads"`
	EndToEnd   []jsonEndToEnd `json:"end_to_end"`
	PerLayer   []jsonPerLayer `json:"per_layer"`
}

type jsonEndToEnd struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type jsonPerLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func wantBenchmarkJSON() benchmarkJSON {
	b := benchmarkJSON{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
	}
	for _, d := range endToEndDefs {
		b.EndToEnd = append(b.EndToEnd, jsonEndToEnd{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayerDefs {
		b.PerLayer = append(b.PerLayer, jsonPerLayer{d.Name, d.Unit, d.Better})
	}
	return b
}

// TestBenchmarkJSON keeps ../BENCHMARK.json and defs.go saying the same
// thing; go test -run TestBenchmarkJSON -update rewrites the file.
func TestBenchmarkJSON(t *testing.T) {
	want, err := json.MarshalIndent(wantBenchmarkJSON(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("../BENCHMARK.json differs from defs.go; run go test -run TestBenchmarkJSON -update")
	}
}

// TestDefsWithinContract checks the limits the acceptance driver puts on
// BENCHMARK.json.
func TestDefsWithinContract(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloadDefs); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloadDefs {
		name(w.Name)
		if len(w.Why) > 200 || bytes.ContainsAny([]byte(w.Why), "\n\r") {
			t.Errorf("why of %s: %d characters, one line of at most 200 allowed", w.Name, len(w.Why))
		}
	}
	if n := len(endToEndDefs); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayerDefs); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	setup := false
	for _, d := range endToEndDefs {
		name(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !setup {
		t.Error("setup_s (s, lower) is missing")
	}
	for _, d := range append(append([]metricDef(nil), endToEndDefs...), perLayerDefs...) {
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is outside the contract", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
	}
	for _, d := range perLayerDefs {
		name(d.Name)
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d", runSeconds)
	}
}
