package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"stableheap/internal/crashtest"
)

// TestRunSmoke drives the tool through its package API with a small
// workload and checks the exit code and human-readable output.
func TestRunSmoke(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-seed", "3", "-steps", "40", "-rounds", "2"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "0 violations") {
		t.Fatalf("summary line missing from output:\n%s", out.String())
	}
}

// TestRunJSON checks that -json emits a parseable report with the right
// number of rounds and nonzero totals.
func TestRunJSON(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-seed", "1", "-steps", "30", "-rounds", "2", "-midgc", "-json"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	var rep struct {
		Rounds []json.RawMessage `json:"rounds"`
		Totals crashtest.Stats   `json:"totals"`
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if len(rep.Rounds) != 2 {
		t.Fatalf("want 2 rounds in JSON, got %d", len(rep.Rounds))
	}
	if rep.Totals.Commits == 0 || rep.Totals.Crashes != 2 {
		t.Fatalf("implausible totals: %+v", rep.Totals)
	}
}

// TestRunReplicated exercises the failover path end to end.
func TestRunReplicated(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-seed", "2", "-steps", "30", "-rounds", "1", "-repl"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "promoted") {
		t.Fatalf("replicated round not reported:\n%s", out.String())
	}
}

// TestRunBadFlag: unknown flags must exit 2 (usage), not 1 (violation).
func TestRunBadFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &out, &errOut); code != 2 {
		t.Fatalf("bad flag: want exit 2, got %d", code)
	}
}

// TestRunDir: with -dir the heap owns real files, which every crash closes;
// both the primary and the twin recovery must come back from the directory.
func TestRunDir(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-seed", "3", "-steps", "40", "-rounds", "2", "-midgc", "-dir", t.TempDir()}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "0 violations") {
		t.Fatalf("summary line missing from output:\n%s", out.String())
	}
}
