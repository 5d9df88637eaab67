// Command shchaos is the chaos explorer: it sweeps PRNG seeds over
// deterministic fault plans (torn page writes, partial log forces,
// at-rest bit rot, transient I/O bursts — internal/faultfs), drives the
// model-checked crashtest workload under each plan, and classifies every
// recovery into the verdict matrix:
//
//	clean            recovered, audit passed
//	detected-online  a typed fault surfaced during live operation
//	detected         recovery refused the devices with a typed error
//	repaired         media recovery from the retained log rebuilt the heap
//	VIOLATION        recovery admitted corrupt state — must never happen
//
// Every failure message embeds the full fault plan; -seed replays one
// seed bit-identically, and -shrink greedily minimizes a failing plan to
// its smallest reproducer (see README "Debugging a chaos failure").
//
// Usage:
//
//	shchaos [-from n] [-seeds n | -seed n] [-steps n] [-crashes n] [-flush f]
//	        [-scenario default|concurrent|nursery|stable-conc|2pc]
//	        [-midgc] [-mutators n] [-dir d]
//	        [-shrink] [-json] [-blackbox file]
//
// -from and -seeds pick the seed range; -dir runs every seed over real
// files under d (per-seed subdirectories, removed as each seed ends).
// Every seed runs with the flight recorder on; -blackbox writes one
// seed's flight-recorder dump (the first violating seed's, else the last
// swept seed's), one boot per heap the seed ran, to a file that shstat
// -decode renders as the pre-crash timeline.
//
// -scenario names the one thing every round carries beside the driver's
// single-threaded workload (crashtest.Kind; DESIGN.md §10 tabulates what
// each burst exercises and what its post-crash audit pins):
//
//	default      nothing more
//	concurrent   -mutators goroutines (default 4) increment counters while
//	             the stable collector runs; histories checked serializable;
//	             the one scenario that is not a function of the seed
//	nursery      chains of nursery-born objects, a minor collection under
//	             faults, a concurrent volatile scan in flight at the crash
//	stable-conc  chains promoted into a concurrently flipped stable area,
//	             crash mid-scan at a quantum boundary, scan resumed
//	2pc          the partitioned heap instead of device faults: a crash at
//	             every two-phase-commit protocol state
//
// A flag the chosen scenario would ignore is a usage error: -mutators
// without -scenario concurrent; -midgc or -flush with -scenario 2pc. So is
// a sweep that could check nothing or a count no run can have: -seeds
// below 1, a negative -steps or -crashes, a -flush outside [0, 1].
//
// Exit status: 0 = no violations, 1 = violations found — or a -scenario
// concurrent sweep (not a -seed replay) that never got to audit a counter,
// every seed having ended at its first recovery — 2 = bad usage.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"stableheap/internal/crashtest"
	"stableheap/internal/faultfs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// seedJSON is one seed's outcome, for -json.
type seedJSON struct {
	Seed     int64          `json:"seed"`
	Plan     string         `json:"plan"`
	Verdicts []string       `json:"verdicts"`
	Matrix   map[string]int `json:"matrix"`
	Retries  int            `json:"recovery_retries,omitempty"`
	Faults   faultfs.Stats  `json:"faults"`
	Failure  string         `json:"failure,omitempty"`
}

type reportJSON struct {
	Seeds      []seedJSON     `json:"seeds"`
	Matrix     map[string]int `json:"matrix"`
	Violations int            `json:"violations"`
	Failures   []string       `json:"failures,omitempty"`
	Shrunk     string         `json:"shrunk_plan,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("shchaos", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seeds := fs.Int("seeds", 16, "sweep this many seeds starting at -from")
	from := fs.Int64("from", 0, "first seed of the sweep")
	oneSeed := fs.Int64("seed", -1, "replay exactly this seed (overrides -seeds)")
	steps := fs.Int("steps", 40, "workload operations per round")
	crashes := fs.Int("crashes", 4, "crash/recover rounds per seed")
	flush := fs.Float64("flush", 0.5, "fraction of resident pages flushed before each crash")
	midGC := fs.Bool("midgc", false, "leave an incremental stable collection in flight at crashes")
	scenario := fs.String("scenario", "default", "workload shape: default (single-threaded driver), concurrent (adds goroutine mutator bursts), nursery (generational + mostly-concurrent volatile GC under faults), stable-conc (mostly-concurrent stable GC, crashes mid-scan) or 2pc (partitioned multi-heap, crashes at every two-phase-commit protocol state)")
	mutators := fs.Int("mutators", 0, "goroutines per burst of -scenario concurrent (0 = 4)")
	shrink := fs.Bool("shrink", false, "greedily minimize the fault plan of each violating seed")
	asJSON := fs.Bool("json", false, "print the verdict matrix and per-seed results as JSON")
	blackbox := fs.String("blackbox", "", "write a seed's flight-recorder dump to this file (first violating seed, else the last seed; decode with shstat -decode)")
	dir := fs.String("dir", "", "run every seed over real files under this directory (per-seed subdirs, removed after each seed)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "shchaos: unexpected arguments: %v\n", fs.Args())
		return 2
	}

	kind, err := crashtest.ParseKind(*scenario)
	if err != nil {
		fmt.Fprintf(stderr, "shchaos: %v\n", err)
		return 2
	}
	ignored := map[string]bool{
		"mutators": kind != crashtest.Concurrent,
		"midgc":    kind == crashtest.TwoPC,
		"flush":    kind == crashtest.TwoPC,
	}
	outOfRange := map[string]bool{
		"seeds":   *seeds < 1,
		"steps":   *steps < 0,
		"crashes": *crashes < 0,
		"flush":   !(*flush >= 0 && *flush <= 1),
	}
	badUsage := false
	fs.Visit(func(f *flag.Flag) {
		switch {
		case ignored[f.Name]:
			fmt.Fprintf(stderr, "shchaos: -%s has no effect with -scenario %v\n", f.Name, kind)
			badUsage = true
		case outOfRange[f.Name]:
			fmt.Fprintf(stderr, "shchaos: -%s %s is out of range\n", f.Name, f.Value)
			badUsage = true
		}
	})
	if badUsage {
		return 2
	}
	sc := crashtest.Scenario{
		Kind: kind, Steps: *steps, Crashes: *crashes, FlushFrac: *flush,
		MidGC: *midGC, Mutators: *mutators, Dir: *dir,
	}

	if *oneSeed >= 0 {
		*from, *seeds = *oneSeed, 1
	}
	rep := crashtest.Sweep(sc, *from, *seeds)

	if *blackbox != "" {
		var dump []byte
		for _, res := range rep.Results {
			if len(res.Dump) > 0 {
				dump = res.Dump
			}
			if res.Failed() {
				break // first violating seed's dump wins
			}
		}
		if err := os.WriteFile(*blackbox, dump, 0o644); err != nil {
			fmt.Fprintf(stderr, "shchaos: writing -blackbox: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "shchaos: wrote flight-recorder dump (%d bytes) to %s\n", len(dump), *blackbox)
	}

	// -shrink: for each violating seed, find the minimal plan that still
	// violates — the reproducer to debug with.
	var shrunk []string
	if *shrink {
		for _, res := range rep.Results {
			if !res.Failed() {
				continue
			}
			min := crashtest.ShrinkPlan(res.Plan, func(p faultfs.Plan) bool {
				return crashtest.RunSeedWithPlan(sc, p).Failed()
			})
			shrunk = append(shrunk, min.String())
		}
	}

	if *asJSON {
		out := reportJSON{
			Matrix:     rep.MatrixMap(),
			Violations: rep.Violations(),
			Failures:   rep.Failures,
		}
		for _, res := range rep.Results {
			verdicts := make([]string, len(res.Verdicts))
			for i, v := range res.Verdicts {
				verdicts[i] = v.String()
			}
			matrix := make(map[string]int)
			for v, c := range res.Matrix {
				if c > 0 {
					matrix[crashtest.Verdict(v).String()] = c
				}
			}
			out.Seeds = append(out.Seeds, seedJSON{
				Seed: res.Seed, Plan: res.Plan.String(), Verdicts: verdicts,
				Matrix: matrix, Retries: res.Retries, Faults: res.Faults,
				Failure: res.Failure,
			})
		}
		if len(shrunk) > 0 {
			out.Shrunk = shrunk[0]
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stderr, "shchaos: %v\n", err)
			return 1
		}
	} else {
		for _, res := range rep.Results {
			fmt.Fprintf(stdout, "seed %d [%s]: %v", res.Seed, res.Plan, res.Verdicts)
			if res.Retries > 0 {
				fmt.Fprintf(stdout, " (%d recovery retries)", res.Retries)
			}
			fmt.Fprintln(stdout)
		}
		fmt.Fprintf(stdout, "\nverdict matrix: %v\n", rep.MatrixMap())
		for _, f := range rep.Failures {
			fmt.Fprintf(stdout, "%s\n", f)
		}
		for _, m := range shrunk {
			fmt.Fprintf(stdout, "minimal reproducer: %s\n", m)
		}
	}

	if rep.Violations() > 0 {
		fmt.Fprintf(stderr, "shchaos: %d seed(s) violated the detectability contract\n", rep.Violations())
		return 1
	}
	if kind == crashtest.Concurrent && *oneSeed < 0 && auditedNothing(rep.Results) {
		fmt.Fprintf(stderr, "shchaos: no seed of the concurrent sweep reached a recovery that audits its counters; pick another -from\n")
		return 1
	}
	return 0
}

// auditedNothing reports a sweep none of whose seeds compared a single item
// of its kind's model after a recovery: it proved nothing about the kind.
func auditedNothing(results []crashtest.SeedResult) bool {
	return !slices.ContainsFunc(results, func(res crashtest.SeedResult) bool { return res.Audited > 0 })
}
