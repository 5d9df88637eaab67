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
		for _, e := range bench.Experiments {
			fmt.Println(e.Run().Render())
		}
		fmt.Printf("suite completed in %s\n", time.Since(start).Round(time.Millisecond))
		return
	case "-h", "--help", "help":
		usage()
		return
	}
	for _, id := range args {
		e, ok := bench.ByID(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "shbench: unknown experiment %q (try 'shbench list')\n", id)
			os.Exit(2)
		}
		fmt.Println(e.Run().Render())
	}
}

func list() {
	fmt.Println("experiments (id — what it reproduces):")
	for _, e := range bench.Experiments {
		fmt.Printf("  %-4s %s\n", e.ID, e.What)
	}
}

func usage() {
	fmt.Println("usage: shbench all | list | <experiment id>...")
}
