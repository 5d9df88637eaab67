package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"stableheap/internal/crashtest"
)

// TestRunSweepSmoke sweeps a few seeds and checks the exit code: the
// detectability contract means a healthy build never exits 1 here.
func TestRunSweepSmoke(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-seeds", "4", "-steps", "25", "-crashes", "2"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s\nstdout: %s", code, errOut.String(), out.String())
	}
	if !bytes.Contains(out.Bytes(), []byte("verdict matrix")) {
		t.Fatalf("matrix missing from output:\n%s", out.String())
	}
}

// TestRunJSONParses checks the -json report shape: per-seed plans and
// verdicts, the aggregate matrix, and a zero violation count.
func TestRunJSONParses(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-seeds", "3", "-steps", "25", "-crashes", "2", "-json"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	var rep reportJSON
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if len(rep.Seeds) != 3 {
		t.Fatalf("want 3 seeds, got %d", len(rep.Seeds))
	}
	if rep.Violations != 0 {
		t.Fatalf("violations in smoke sweep: %v", rep.Failures)
	}
	for _, s := range rep.Seeds {
		if s.Plan == "" || len(s.Verdicts) == 0 {
			t.Fatalf("seed %d: empty plan or verdicts: %+v", s.Seed, s)
		}
	}
}

// TestRunSeedReplayIdentical is the -seed reproducibility contract at the
// CLI layer: two invocations with the same seed produce byte-identical
// output (satellite: deterministic replay).
func TestRunSeedReplayIdentical(t *testing.T) {
	runOnce := func() []byte {
		var out, errOut bytes.Buffer
		if code := run([]string{"-seed", "6", "-steps", "30", "-crashes", "3", "-json"}, &out, &errOut); code != 0 {
			t.Fatalf("exit %d, stderr: %s", code, errOut.String())
		}
		return out.Bytes()
	}
	a, b := runOnce(), runOnce()
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed, different output:\n--- first\n%s\n--- second\n%s", a, b)
	}
}

// TestRunBadUsage: unknown flags, stray arguments, an unknown scenario and
// every flag the chosen scenario would ignore exit 2 with one line on
// stderr naming the offender, before any seed runs.
func TestRunBadUsage(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // substring of stderr
	}{
		{[]string{"-bogus"}, "-bogus"},
		{[]string{"extra"}, "unexpected arguments"},
		{[]string{"-scenario", "bogus"}, `unknown scenario "bogus"`},
		{[]string{"-mutators", "4"}, "-mutators has no effect with -scenario default"},
		{[]string{"-scenario", "nursery", "-mutators", "4"}, "-mutators has no effect with -scenario nursery"},
		{[]string{"-scenario", "stable-conc", "-mutators", "16"}, "-mutators has no effect with -scenario stable-conc"},
		{[]string{"-scenario", "2pc", "-midgc"}, "-midgc has no effect with -scenario 2pc"},
		{[]string{"-scenario", "2pc", "-flush", "0.2"}, "-flush has no effect with -scenario 2pc"},
	} {
		var out, errOut bytes.Buffer
		if code := run(tc.args, &out, &errOut); code != 2 {
			t.Errorf("%v: want exit 2, got %d", tc.args, code)
		}
		if !strings.Contains(errOut.String(), tc.want) {
			t.Errorf("%v: stderr %q does not name the offender (%q)", tc.args, errOut.String(), tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("%v: a sweep ran before the usage error:\n%s", tc.args, out.String())
		}
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-scenario", "2pc", "-midgc", "-flush", "0.2"}, &out, &errOut); code != 2 || strings.Count(errOut.String(), "\n") != 2 {
		t.Errorf("two ignored flags: want exit 2 and one line each, got %d and %q", code, errOut.String())
	}
}

// TestRunConcurrentScenario smokes -scenario concurrent: mutator bursts
// ride every round and the detectability contract still holds (exit 0).
// The range starts at CI's: seeds 2350 and 2352 carry no log rot, so their
// rounds recover and audit the counters — from 0 all three seeds end at
// their first recovery and the sweep is refused (auditedNothing).
func TestRunConcurrentScenario(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-scenario", "concurrent", "-from", "2350", "-seeds", "3", "-steps", "20", "-crashes", "2", "-mutators", "3"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s\nstdout: %s", code, errOut.String(), out.String())
	}
	if !bytes.Contains(out.Bytes(), []byte("verdict matrix")) {
		t.Fatalf("matrix missing from output:\n%s", out.String())
	}
}

// TestAuditedNothing: a concurrent sweep whose every seed ended before any
// counter was audited exits 1 (run applies the rule to sweeps of that kind).
func TestAuditedNothing(t *testing.T) {
	if !auditedNothing([]crashtest.SeedResult{{Seed: 1}, {Seed: 2}}) {
		t.Error("two seeds with Audited 0 must count as a sweep that audited nothing")
	}
	if auditedNothing([]crashtest.SeedResult{{Seed: 1}, {Seed: 2, Audited: 4}}) {
		t.Error("one audited seed is enough")
	}
}
