// Command shbench regenerates the reproduction's experiment tables and
// figures (DESIGN.md §5 / EXPERIMENTS.md): one sub-command per experiment,
// or "all" for the full suite.
//
// Usage:
//
//	shbench all
//	shbench e4 e7
//	shbench list
//
// Comparable performance numbers come from the end-to-end harness under
// benchmark/ (bash benchmark/run.sh, contract in BENCHMARK.json), not from
// these tables.
package main

import (
	"fmt"
	"os"
	"time"

	"stableheap/internal/bench"
)

func main() {
	args := os.Args[1:]
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	switch args[0] {
	case "list":
		list()
		return
	case "all":
		start := time.Now()
		for _, f := range bench.All() {
			fmt.Println(f().Render())
		}
		fmt.Printf("suite completed in %s\n", time.Since(start).Round(time.Millisecond))
		return
	case "-h", "--help", "help":
		usage()
		return
	}
	for _, id := range args {
		f, ok := bench.ByID(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "shbench: unknown experiment %q (try 'shbench list')\n", id)
			os.Exit(2)
		}
		fmt.Println(f().Render())
	}
}

func list() {
	fmt.Println(`experiments (id — what it reproduces):
  e1   micro: cost of low-level recoverable actions
  e2   micro: collector step costs (flip, copy, scan, trap, GCEnd)
  e3   figure: GC pause vs live-set size, stop-the-world vs incremental
  e4   figure: recovery time vs heap size (the headline claim)
  e5   figure: recovery time vs checkpoint interval
  e6   table: log volume by origin vs live fraction
  e7   figure: recovery after a crash during a collection, vs heap size
  e8   table: stability tracking cost vs newly stable closure size
  e9   table: heap-division benefit on churny workloads
  e10  figure: read-barrier cost and trap skew (Ellis vs Baker)
  e11  macro: transaction throughput across collector modes
  e12  correctness: crash-matrix soundness sweep
  e13  extension: group commit (forces per commit, throughput)
  e14  ablation: content-free vs content-carrying copy records
  e15  extension: log space bounded by truncation
  e19  extension: nursery + mostly-concurrent volatile GC pauses
  e20  extension: flight recorder + watchdog overhead on the hot path
  e22  extension: mostly-concurrent stable GC stalls vs stop-the-world
  e23  extension: partitioned multi-heap scaling and the cross-partition 2PC tax`)
}

func usage() {
	fmt.Println("usage: shbench all | list | <experiment id>...")
}
