package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stableheap"
	"stableheap/internal/crashtest"
	"stableheap/internal/faultfs"
	"stableheap/internal/wal"
)

// TestRunSummary runs the full workload (two bursts, crash+recover in
// between) at a reduced size and checks the human summary.
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

// TestRunJSON checks the -json snapshot parses and carries both the
// workload's and the mid-run recovery's metrics.
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
	if m.Counters["recovery_redo_scanned_total"] == 0 {
		t.Fatalf("recovery counters absent: %v", m.Counters)
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

// TestRunDecode: -decode on a recorded dump — a chaos seed's journal, three
// crashes and so four boots — prints the newest boot by default, every boot
// with -all, the requested tail of each, and a loadable Chrome trace; an
// unreadable dump exits 1.
func TestRunDecode(t *testing.T) {
	res := crashtest.RunSeedWithPlan(crashtest.Scenario{Steps: 30, Crashes: 3, MidGC: true},
		faultfs.Plan{Seed: 11, TornPage: true, TornForce: true})
	if res.Failed() || len(res.Dump) == 0 {
		t.Fatalf("no dump to decode: failed=%v, %d bytes", res.Failed(), len(res.Dump))
	}
	dump := filepath.Join(t.TempDir(), "bb.bin")
	if err := os.WriteFile(dump, res.Dump, 0o644); err != nil {
		t.Fatal(err)
	}
	decodeRun := func(args ...string) string {
		t.Helper()
		var out, errOut bytes.Buffer
		if code := run(append([]string{"-decode", dump}, args...), &out, &errOut); code != 0 {
			t.Fatalf("exit %d, stderr: %s", code, errOut.String())
		}
		return out.String()
	}

	newest := decodeRun()
	if strings.Count(newest, "boot ") != 1 || !strings.Contains(newest, "seq=") {
		t.Fatalf("default output is not one boot's timeline:\n%s", newest)
	}
	chrome := filepath.Join(t.TempDir(), "t.json")
	every := decodeRun("-all", "-tail", "5", "-chrome", chrome)
	if n := strings.Count(every, "boot "); n < 2 {
		t.Fatalf("-all printed %d boots of a run that crashed three times:\n%s", n, every)
	}
	if !strings.Contains(every, "crash") || !strings.Contains(every, "recovery") {
		t.Fatalf("-all -tail 5 shows neither a crash nor a recovery:\n%s", every)
	}
	if len(every) >= len(decodeRun("-all")) {
		t.Fatal("-tail did not shorten the timeline")
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	raw, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Fatalf("Chrome trace does not load: %v (%d events)", err, len(doc.TraceEvents))
	}

	var out, errOut bytes.Buffer
	if code := run([]string{"-decode", filepath.Join(t.TempDir(), "absent.bin")}, &out, &errOut); code != 1 {
		t.Fatalf("missing dump: exit %d, want 1", code)
	}
}

// TestLogDumpCoversEveryRecordType: every wal.Type has a sample here, an
// arm of its own in describe and a name in the -json form — a record type
// added to wal fails this test until -log can print it.
func TestLogDumpCoversEveryRecordType(t *testing.T) {
	samples := map[wal.Type]wal.Record{}
	for _, r := range []wal.Record{
		wal.BeginRec{}, wal.UpdateRec{}, wal.CLRRec{}, wal.AllocRec{}, wal.CommitRec{}, wal.AbortRec{},
		wal.EndRec{}, wal.FlipRec{}, wal.CopyRec{}, wal.ScanRec{}, wal.GCEndRec{}, wal.BaseRec{},
		wal.CompleteRec{}, wal.V2SCopyRec{}, wal.SFixRec{}, wal.VFlipRec{}, wal.PageFetchRec{},
		wal.EndWriteRec{}, wal.CheckpointRec{}, wal.LogicalRec{}, wal.PrepareRec{},
		wal.TwoPCBeginRec{}, wal.TwoPCDecideRec{}, wal.TwoPCEndRec{},
	} {
		samples[r.Type()] = r
	}
	n := 0
	for typ := wal.TInvalid + 1; !strings.HasPrefix(typ.String(), "type("); typ++ {
		n++
		r, ok := samples[typ]
		if !ok {
			t.Errorf("record type %v has no sample in this test", typ)
			continue
		}
		if line := describe(r); line == "" || strings.HasPrefix(line, "?") {
			t.Errorf("describe has no arm for %v: %q", typ, line)
		}
		raw, err := json.Marshal(jsonRecord{LSN: 1, Type: r.Type().String(), Record: r})
		var back struct {
			Type   string          `json:"type"`
			Record json.RawMessage `json:"record"`
		}
		if err == nil {
			err = json.Unmarshal(raw, &back)
		}
		if err != nil || back.Type != typ.String() || len(back.Record) == 0 {
			t.Errorf("%v as JSON: %s (%v)", typ, raw, err)
		}
	}
	if n != len(samples) {
		t.Errorf("walked %d named record types, have %d samples", n, len(samples))
	}
}

// TestRunLogDir is the durability round trip -log gives from outside: on a
// fresh directory it runs the workload, closes the heap, reopens it and
// dumps the log; run again it recovers the same heap and dumps, and the
// heap's own transaction counter says no workload ran.
func TestRunLogDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "heap")
	logRun := func(args ...string) (string, string) {
		t.Helper()
		var out, errOut bytes.Buffer
		if code := run(append([]string{"-ops", "150", "-accounts", "16", "-log", dir}, args...), &out, &errOut); code != 0 {
			t.Fatalf("exit %d, stderr: %s", code, errOut.String())
		}
		return out.String(), errOut.String()
	}
	first, progress := logRun()
	if !strings.Contains(progress, "invariant total=") {
		t.Fatalf("fresh directory: no workload ran:\n%s", progress)
	}
	if !strings.Contains(first, "COMMIT") || !strings.Contains(first, "tx_begun_total 0\n") {
		t.Fatalf("first dump shows no commit, or the dumped heap is not a reopened one:\n%s", first)
	}
	second, progress := logRun()
	if progress != "" || !strings.Contains(second, "tx_begun_total 0\n") {
		t.Fatalf("second run on the same directory ran a workload: stderr %q\n%s", progress, second)
	}
	if !strings.Contains(second, "COMMIT") {
		t.Fatalf("second dump shows no commit:\n%s", second)
	}

	ndjson, _ := logRun("-json", "-n", "2")
	lines := strings.Split(strings.TrimSpace(ndjson), "\n")
	if len(lines) != 2 {
		t.Fatalf("-json -n 2 printed %d lines:\n%s", len(lines), ndjson)
	}
	for _, line := range lines {
		var rec struct {
			LSN  uint64 `json:"lsn"`
			Type string `json:"type"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil || rec.LSN == 0 || rec.Type == "" {
			t.Fatalf("not a record object: %q (%v)", line, err)
		}
	}
}
