// Command shrecover is the crash-and-recover demonstration driver: it runs
// a model-checked random workload, crashes the heap at a chosen (or
// random) point — optionally in the middle of a collection and with an
// arbitrary fraction of dirty pages flushed — recovers, verifies every
// committed value against the model, and reports what recovery did.
//
// Usage:
//
//	shrecover [-seed n] [-steps n] [-flush f] [-midgc] [-rounds n] [-json] [-dir path]
//
// Every crash is a restart: core.Open over the bytes the crash left, and
// the twin recovers from a copy of them. With -dir those bytes are real
// files in a fresh subdirectory of path (removed on exit), laid out as
// filestore.Backings lays them out: the same
// crash/recover/verify loop, but every page write, log force and master
// update goes through the OS. A negative -steps or -rounds, or a -flush
// outside [0, 1], is a usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"stableheap/internal/core"
	"stableheap/internal/crashtest"
)

// roundResult is one crash/recover round, for -json.
type roundResult struct {
	Round     int    `json:"round"`
	GCActive  bool   `json:"gc_active"`
	ElapsedNs int64  `json:"elapsed_ns"`
	ResumeLSN uint64 `json:"resume_lsn"` // where repeating history began
	Scanned   int    `json:"redo_scanned"`
	Applied   int    `json:"redo_applied,omitempty"`
	Losers    int    `json:"losers"`
	InDoubt   int    `json:"in_doubt"`
	GCResumed bool   `json:"gc_resumed"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: flags in, exit code out (0 = verified,
// 1 = violation or internal failure, 2 = bad usage).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("shrecover", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "workload seed")
	steps := fs.Int("steps", 150, "workload operations before each crash")
	flush := fs.Float64("flush", 0.5, "fraction of dirty pages flushed before the crash")
	midGC := fs.Bool("midgc", false, "crash in the middle of a stable collection")
	rounds := fs.Int("rounds", 3, "crash/recover rounds")
	asJSON := fs.Bool("json", false, "print per-round results and totals as JSON")
	dir := fs.String("dir", "", "back the heap with real files in a fresh subdirectory of this path")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *steps < 0 || *rounds < 0 || !(*flush >= 0 && *flush <= 1) {
		fmt.Fprintf(stderr, "shrecover: -steps %d -rounds %d -flush %g: counts cannot be negative, and -flush lies in [0, 1]\n", *steps, *rounds, *flush)
		return 2
	}

	say := func(format string, args ...any) {
		if !*asJSON {
			fmt.Fprintf(stdout, format+"\n", args...)
		}
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "shrecover: "+format+"\n", args...)
		return 1
	}

	cfg := core.Config{
		PageSize:      1024,
		StableWords:   32 * 1024,
		VolatileWords: 8 * 1024,
	}
	if *dir != "" {
		heapDir, err := os.MkdirTemp(*dir, "shrecover-")
		if err != nil {
			return fail("%v", err)
		}
		defer os.RemoveAll(heapDir)
		cfg.Dir = heapDir
		say("heap on real files at %s", heapDir)
	}
	d := crashtest.New(cfg, *seed)

	results := make([]roundResult, 0, *rounds)
	for round := 1; round <= *rounds; round++ {
		for i := 0; i < *steps; i++ {
			if err := d.Step(); err != nil {
				return fail("round %d step %d: %v", round, i, err)
			}
		}
		if *midGC {
			d.Heap().StartStableCollection()
			d.Heap().StepStable()
		}
		gcActive := d.Heap().StableCollector().Active()
		start := time.Now()
		if err := d.CrashAndRecover(*flush, true); err != nil {
			return fail("round %d: VIOLATION: %v", round, err)
		}
		res := d.Heap().LastRecovery()
		st := res.Stats
		results = append(results, roundResult{
			Round: round, GCActive: gcActive,
			ElapsedNs: time.Since(start).Nanoseconds(),
			ResumeLSN: uint64(res.RedoStart), Scanned: res.RedoScanned,
			Applied: res.RedoApplied, Losers: len(res.Losers), InDoubt: len(res.InDoubt),
			GCResumed: d.Heap().StableCollector().Active(),
		})
		say("round %d: crash (gc-active=%v, %.0f%% flushed) → recovered in %s",
			round, gcActive, *flush*100, time.Since(start).Round(time.Microsecond))
		say("  redo from LSN %d: %d records scanned, %d applied; %d losers rolled back",
			res.RedoStart, res.RedoScanned, res.RedoApplied, len(res.Losers))
		say("  phases: analysis %s, redo %s, undo %s",
			st.Analysis.Round(time.Microsecond), st.Redo.Round(time.Microsecond),
			st.Undo.Round(time.Microsecond))
		say("  model verified twice (primary + independent twin recovery)")
	}

	s := d.Stats()
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Rounds []roundResult   `json:"rounds"`
			Totals crashtest.Stats `json:"totals"`
		}{results, s}); err != nil {
			return fail("%v", err)
		}
		return 0
	}
	fmt.Fprintf(stdout, "\ntotal: %d operations, %d commits, %d aborts, %d crashes, 0 violations\n",
		s.Steps, s.Commits, s.Aborts, s.Crashes)
	return 0
}
