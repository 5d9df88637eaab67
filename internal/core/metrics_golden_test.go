package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"stableheap/internal/gc"
	"stableheap/internal/obs"
)

var updateMetrics = flag.Bool("update", false, "rewrite testdata/metrics_golden.txt from this build")

// goldenConfigs are the heaps TestMetricsGolden scripts: the default, both
// concurrent collectors paced by hand, the undivided heap and the flight
// recorder.
func goldenConfigs() []struct {
	name string
	cfg  Config
} {
	conc := DefaultConfig()
	conc.StableGC, conc.ConcurrentVGC, conc.ManualScan = gc.Concurrent, true, true
	undiv := DefaultConfig()
	undiv.Undivided = true
	fr := DefaultConfig()
	fr.FlightRecorder = true
	return []struct {
		name string
		cfg  Config
	}{{"default", DefaultConfig()}, {"concurrent", conc}, {"undivided", undiv}, {"flight", fr}}
}

// writeMetrics appends every counter's value and every histogram's count,
// one name per line in name order.
func writeMetrics(b *strings.Builder, config, phase string, m obs.Snapshot) {
	var lines []string
	for n, v := range m.Counters {
		lines = append(lines, fmt.Sprintf("%s %s %s %d", config, phase, n, v))
	}
	for n, h := range m.Histograms {
		lines = append(lines, fmt.Sprintf("%s %s %s count=%d", config, phase, n, h.Count))
	}
	sort.Strings(lines)
	for _, l := range lines {
		b.WriteString(l + "\n")
	}
}

// TestMetricsGolden pins which names Metrics reports and what they read
// after one scripted single-goroutine workload: obsWorkload, a checkpoint,
// a crash, a restart and a second round. The frozen harness reads some of
// these names (filestore_log_fsyncs_total and filestore_page_fsyncs_total
// are the inputs of fsyncs_per_commit); a rename, a lost name or a counter
// that moves to another subsystem fails here. Regenerate with -update
// after a change meant to move a count, and say why.
func TestMetricsGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range goldenConfigs() {
		hp := openMem(c.cfg)
		obsWorkload(t, hp)
		hp.Checkpoint()
		writeMetrics(&b, c.name, "before-crash", hp.Metrics())
		disk, logDev := hp.Crash()
		hp2, err := reopen(c.cfg, disk, logDev)
		if err != nil {
			t.Fatalf("%s: reopen: %v", c.name, err)
		}
		obsWorkload(t, hp2)
		writeMetrics(&b, c.name, "after-restart", hp2.Metrics())
		hp2.Close()
	}
	path := filepath.Join("testdata", "metrics_golden.txt")
	if *updateMetrics {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		wantSet := make(map[string]bool, len(wl))
		for _, l := range wl {
			wantSet[l] = true
		}
		gotSet := make(map[string]bool, len(gl))
		for _, l := range gl {
			gotSet[l] = true
			if !wantSet[l] {
				t.Errorf("new: %s", l)
			}
		}
		for _, l := range wl {
			if !gotSet[l] {
				t.Errorf("gone: %s", l)
			}
		}
	}
}
