package main

import (
	"bytes"
	"strings"
	"testing"

	"encoding/json"

	"stableheap"
)

// TestRunSummary runs the full workload (two bursts, crash+recover,
// standby attach) at a reduced size and checks the human summary.
func TestRunSummary(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-ops", "150", "-accounts", "16"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{"counters:", "latency histograms"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("summary missing %q:\n%s", want, out.String())
		}
	}
	if !strings.Contains(errOut.String(), "invariant total=") {
		t.Fatalf("workload invariant line missing from stderr:\n%s", errOut.String())
	}
}

// TestRunJSON checks the -json snapshot parses and carries both heap and
// replication metrics.
func TestRunJSON(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-ops", "150", "-accounts", "16", "-json"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	var m stableheap.Metrics
	if err := json.Unmarshal(out.Bytes(), &m); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if m.Counters["tx_committed_total"] == 0 {
		t.Fatalf("no commits recorded: %v", m.Counters)
	}
	if m.Counters["repl_shipped_bytes_total"] == 0 {
		t.Fatalf("replication counters absent: %v", m.Counters)
	}
}

// TestRunBadFlag: unknown flags must exit 2.
func TestRunBadFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-nope"}, &out, &errOut); code != 2 {
		t.Fatalf("want exit 2, got %d", code)
	}
}

// TestRunDir: with -dir the mid-run crash closes the heap's own files and
// the run continues on the heap recovered from the directory.
func TestRunDir(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-ops", "150", "-accounts", "16", "-dir", t.TempDir()}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "filestore_") {
		t.Fatalf("filestore counters missing from the summary:\n%s", out.String())
	}
}
