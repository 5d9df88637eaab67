package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestEveryWorkloadRuns runs each workload for a fraction of a second,
// end-to-end pass and per-layer pass, over real files in a temporary
// directory, and checks what the acceptance driver will check: the run is
// correct, every gated metric is present and not 0, every per-layer metric
// reported is one BENCHMARK.json lists, and the last line parses.
func TestEveryWorkloadRuns(t *testing.T) {
	perLayer := map[string]bool{}
	for _, d := range perLayerDefs {
		perLayer[d.Name] = true
	}
	seconds := "0.3"
	if raceEnabled {
		seconds = "3" // oo7-cold commits ten times a second under the detector
	}
	for _, w := range workloadDefs {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				t.Parallel() // the runs mostly wait for fdatasync
				dir := t.TempDir()
				var stdout, stderr bytes.Buffer
				out := filepath.Join(dir, "result.json")
				o, err := parseArgs([]string{"--workload", w.Name, "--seed", "3", "--seconds", seconds, "--trace", trace,
					"-dir", filepath.Join(dir, "data"), "-out", out}, &stderr)
				if err != nil {
					t.Fatal(err)
				}
				o.setups = 1
				if code := o.run(&stdout, &stderr); code != 0 {
					t.Fatalf("exit code %d\n%s%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var last struct {
					Correct   bool  `json:"correct"`
					Attempted int64 `json:"attempted"`
					Failed    int64 `json:"failed"`
					Metrics   map[string]struct {
						Value float64 `json:"value"`
						Unit  string  `json:"unit"`
					} `json:"metrics"`
				}
				dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&last); err != nil {
					t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
				}
				if !last.Correct || last.Failed != 0 || last.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", last.Correct, last.Attempted, last.Failed)
				}
				rep, err := readReport(out)
				if err != nil {
					t.Fatal(err)
				}
				rr := rep.Workloads[w.Name].Reps[0]
				if trace == "0" {
					if len(last.Metrics) != len(endToEndDefs) {
						t.Errorf("%d metrics on the last line, want %d", len(last.Metrics), len(endToEndDefs))
					}
					for _, d := range endToEndDefs {
						if m, ok := last.Metrics[d.Name]; !ok || m.Value == 0 || m.Unit != d.Unit {
							t.Errorf("%s = %+v (reported: %v)", d.Name, m, ok)
						}
					}
					for _, name := range []string{"commit_tps", "commit_p50_us", "commit_p99_us", "log_bytes_per_commit", "space_amp"} {
						if rr.EndToEnd[name].Value == 0 {
							t.Errorf("%s is 0", name)
						}
					}
					if _, ok := rr.EndToEnd["failed_share"]; !ok {
						t.Error("failed_share is not reported")
					}
					return
				}
				if len(last.Metrics) != len(perLayerDefs) {
					t.Errorf("%d metrics on the last line, want %d", len(last.Metrics), len(perLayerDefs))
				}
				for name, m := range rr.PerLayer {
					if !perLayer[name] {
						t.Errorf("per-layer metric %s (%s) is not in defs.go", name, m.Unit)
					}
				}
				want := []string{"env.fdatasync_us_p50", "wal.append_force_us_p50", "tx.commit_us_p50", "wal.bytes_per_commit", "vm.read_miss_us"}
				if w.Name == "crash-recover" {
					want = append(want, "recovery.redo_workers", "recovery.small_redo_scanned", "recovery.size_ratio")
				}
				for _, name := range want {
					if rr.PerLayer[name].Value == 0 {
						t.Errorf("%s is 0", name)
					}
				}
			})
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-trace", "2"},
		{"-seconds", "0"},
		{"-trace-out", "x.json"},
		{"stray"},
	} {
		var stdout, stderr bytes.Buffer
		if code := runMain(append(args, "-dir", t.TempDir()), &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit code %d, want 2", args, code)
		}
	}
}

// TestTraceOut checks that the spans load as Chrome trace JSON and that
// children lie inside their operation.
func TestTraceOut(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spans.json")
	var stdout, stderr bytes.Buffer
	if code := runMain([]string{"-workload", "oo7-churn", "-seconds", "0.5", "-trace", "1", "-dir", filepath.Join(dir, "data"), "-trace-out", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\n%s", code, stderr.String())
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Tid  int     `json:"tid"`
			Args struct {
				Op uint32 `json:"op"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	type key struct {
		tid int
		op  uint32
	}
	roots := map[key][2]float64{}
	names := map[string]int{}
	for _, e := range doc.TraceEvents {
		names[e.Name]++
		if strings.HasPrefix(e.Name, "op.") {
			roots[key{e.Tid, e.Args.Op}] = [2]float64{e.Ts, e.Ts + e.Dur}
		}
	}
	for _, e := range doc.TraceEvents {
		if !strings.HasPrefix(e.Name, "tx.") {
			continue
		}
		r, ok := roots[key{e.Tid, e.Args.Op}]
		if !ok {
			t.Fatalf("%s of operation %d on track %d has no root span", e.Name, e.Args.Op, e.Tid)
		}
		if e.Ts < r[0]-0.001 || e.Ts+e.Dur > r[1]+0.001 {
			t.Fatalf("%s [%v, %v] lies outside its operation [%v, %v]", e.Name, e.Ts, e.Ts+e.Dur, r[0], r[1])
		}
	}
	for _, name := range []string{"op.replace_composite", "tx.begin", "tx.read", "tx.write", "tx.alloc", "tx.commit", "core.open_dir", "core.close"} {
		if names[name] == 0 {
			t.Errorf("no %s span", name)
		}
	}
}
