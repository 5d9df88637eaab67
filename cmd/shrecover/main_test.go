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

// TestRunBadFlag: unknown flags and counts no run can have must exit 2
// (usage), not 1 (violation), naming the offender before any round runs.
func TestRunBadFlag(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // substring of stderr
	}{
		{[]string{"-no-such-flag"}, "-no-such-flag"},
		{[]string{"-rounds", "-1"}, "-rounds -1 "},
		{[]string{"-steps", "-1"}, "-steps -1 "},
		{[]string{"-flush", "3"}, "-flush 3:"},
		{[]string{"-flush", "-0.5"}, "-flush -0.5:"},
	} {
		var out, errOut bytes.Buffer
		if code := run(tc.args, &out, &errOut); code != 2 {
			t.Errorf("%v: want exit 2, got %d", tc.args, code)
		}
		if !strings.Contains(errOut.String(), tc.want) {
			t.Errorf("%v: stderr %q does not name the offender (%q)", tc.args, errOut.String(), tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("%v: a round ran before the usage error:\n%s", tc.args, out.String())
		}
	}
}

// TestRunDir: with -dir the heap lives in real files, which every crash
// abandons and reopens; both the primary and the twin recovery must come
// back from the directory's bytes.
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
