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
//	shchaos [-seeds n | -seed n] [-steps n] [-crashes n] [-flush f]
//	        [-midgc] [-repl] [-scenario default|concurrent|nursery|stable-conc]
//	        [-mutators n] [-shrink] [-json] [-blackbox file]
//
// Every seed runs with the flight recorder on; -blackbox writes one
// seed's recorder journal (the first violating seed's, else the last
// swept seed's) to a file that shstat -decode renders as the pre-crash
// timeline.
//
// -scenario concurrent adds a concurrent mutator burst to every round:
// goroutines increment disjoint counters while the stable collector runs,
// each burst's history is checked for conflict serializability, and the
// post-crash audit pins every counter to its last acknowledged commit.
// -mutators overrides the burst width (default 4).
//
// -scenario nursery runs the heap with a small nursery and the
// mostly-concurrent volatile collector: every round commits chains of
// nursery-born objects, forces a minor collection with faults armed, and
// crashes with a concurrent scan in flight; the post-crash audit replays
// each acknowledged chain node by node.
//
// -scenario stable-conc runs the heap with the mostly-concurrent stable
// collector: every round commits chains of objects, promotes them to the
// stable area, flips it concurrently, paces the scan with faults armed and
// usually crashes with the scan still in flight at a quantum boundary;
// recovery resumes the scan and the audit replays each acknowledged chain.
//
// Exit status: 0 = no violations, 1 = violations found, 2 = bad usage.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

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
	repl := fs.Bool("repl", false, "end each seed with a primary/standby failover round")
	scenario := fs.String("scenario", "default", "workload shape: default (single-threaded driver), concurrent (adds goroutine mutator bursts), nursery (generational + mostly-concurrent volatile GC under faults), stable-conc (mostly-concurrent stable GC, crashes mid-scan) or 2pc (partitioned multi-heap, crashes at every two-phase-commit protocol state)")
	mutators := fs.Int("mutators", 0, "concurrent mutator goroutines per burst (0 = scenario default)")
	shrink := fs.Bool("shrink", false, "greedily minimize the fault plan of each violating seed")
	asJSON := fs.Bool("json", false, "print the verdict matrix and per-seed results as JSON")
	blackbox := fs.String("blackbox", "", "write a seed's flight-recorder journal to this file (first violating seed, else the last seed; decode with shstat -decode)")
	dir := fs.String("dir", "", "run every seed over real files under this directory (per-seed subdirs, removed after each seed)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "shchaos: unexpected arguments: %v\n", fs.Args())
		return 2
	}

	sc := crashtest.Scenario{
		Steps: *steps, Crashes: *crashes, FlushFrac: *flush,
		MidGC: *midGC, Repl: *repl, Mutators: *mutators, Dir: *dir,
	}
	switch *scenario {
	case "default":
	case "concurrent":
		if sc.Mutators <= 0 {
			sc.Mutators = 4
		}
	case "nursery":
		sc.Nursery = true
	case "stable-conc":
		sc.StableConc = true
	case "2pc":
		sc.TwoPC = true
	default:
		fmt.Fprintf(stderr, "shchaos: unknown -scenario %q (want default, concurrent, nursery, stable-conc or 2pc)\n", *scenario)
		return 2
	}

	var rep crashtest.Report
	if *oneSeed >= 0 {
		rep = crashtest.Sweep(sc, *oneSeed, 1)
	} else {
		rep = crashtest.Sweep(sc, *from, *seeds)
	}

	if *blackbox != "" {
		var dump []byte
		for _, res := range rep.Results {
			if len(res.Dump) > 0 {
				dump = res.Dump
			}
			if res.Failed() {
				break // first violating seed's journal wins
			}
		}
		if err := os.WriteFile(*blackbox, dump, 0o644); err != nil {
			fmt.Fprintf(stderr, "shchaos: writing -blackbox: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "shchaos: wrote flight-recorder journal (%d bytes) to %s\n", len(dump), *blackbox)
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
	return 0
}
