// Command shstat exercises a stable heap and reports its live metrics: it
// runs a bank-transfer workload (with an in-flight incremental collection),
// crashes and recovers mid-run so recovery phase times are populated, runs
// a second burst against the recovered heap, and then prints the unified
// metrics snapshot — every counter plus p50/p90/p99/max for every latency
// histogram. The volatile area runs with the nursery generation and the
// mostly-concurrent collector enabled, and the human summary closes with
// the derived generational/concurrent story: promotion rate, write-barrier
// hit counts, and the pause percentiles of each collection flavor.
//
// With -decode it runs no workload: it reads a flight-recorder dump (what
// shchaos -blackbox or Heap.FlightDump wrote) and prints its timeline.
//
// With -log it dumps a file-backed heap's write-ahead log, one annotated
// line per retained record (logdump.go): a directory that holds a heap is
// recovered and dumped, no workload run; a fresh one is formatted, runs the
// workload above, is closed, and is then reopened and dumped — so the same
// command twice is a durability round trip seen from outside.
//
// Usage:
//
//	shstat                          # human-readable summary
//	shstat -json                    # the Metrics snapshot as JSON
//	shstat -prom                    # Prometheus text exposition
//	shstat -trace trace.json        # also write a Chrome trace (about://tracing)
//	shstat -serve localhost:8077    # keep serving /metrics, /metrics.json, /trace
//	shstat -decode dump.bin              # timeline of the dump's newest boot
//	shstat -decode dump.bin -tail 20     # only the last 20 events
//	shstat -decode dump.bin -all         # every boot, oldest first
//	shstat -decode dump.bin -chrome t.json  # also a Chrome trace of the newest boot
//	shstat -log heapdir                  # the heap's retained log, annotated
//	shstat -log heapdir -n 50 -json      # its first 50 records as NDJSON
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strings"

	"stableheap"
	"stableheap/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: flags in, exit code out (0 = success,
// 1 = failure, 2 = bad usage).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("shstat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	ops := fs.Int("ops", 2000, "transfer transactions per burst (two bursts run)")
	accounts := fs.Int("accounts", 128, "bank accounts")
	asJSON := fs.Bool("json", false, "print the metrics snapshot as JSON")
	asProm := fs.Bool("prom", false, "print Prometheus text exposition")
	tracePath := fs.String("trace", "", "write Chrome trace_event JSON to this file")
	serveAddr := fs.String("serve", "", "serve /metrics, /metrics.json and /trace on this address and block")
	dir := fs.String("dir", "", "back the heap with real files in a fresh subdirectory of this path (filestore_ metrics populate)")
	dump := fs.String("decode", "", "decode this flight-recorder dump instead of running the workload")
	tail := fs.Int("tail", 0, "with -decode: print only the last N events per boot (0: all)")
	all := fs.Bool("all", false, "with -decode: print every boot in the dump, oldest first (default: newest only)")
	chrome := fs.String("chrome", "", "with -decode: also write the newest boot as Chrome trace_event JSON to this file")
	logDir := fs.String("log", "", "dump the write-ahead log of the heap in this directory (a fresh directory runs the workload there first); -json prints one object per record")
	maxRecords := fs.Int("n", 200, "with -log: print at most this many records")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *logDir != "" {
		if err := logDump(*logDir, *ops, *accounts, *maxRecords, *asJSON, stdout, stderr); err != nil {
			fmt.Fprintf(stderr, "shstat: %v\n", err)
			return 1
		}
		return 0
	}
	if *dump != "" {
		if err := decode(*dump, *tail, *all, *chrome, stdout); err != nil {
			fmt.Fprintf(stderr, "shstat: %v\n", err)
			return 1
		}
		return 0
	}
	if err := body(*ops, *accounts, *asJSON, *asProm, *tracePath, *serveAddr, *dir, stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "shstat: %v\n", err)
		return 1
	}
	return 0
}

// config is the heap every shstat mode runs. Its geometry is the default
// one, so -log can also open a heap an application left in a directory.
func config() stableheap.Config {
	cfg := stableheap.DefaultConfig()
	cfg.StableWords = 64 * 1024
	cfg.VolatileWords = 16 * 1024
	// Run the volatile area the way a latency-sensitive deployment would:
	// nursery on (the default) and full collections mostly-concurrent, so
	// the vgc_nursery_* and vgc_conc_* metrics populate and the summary can
	// show the generational/concurrent pause story.
	cfg.ConcurrentVGC = true
	return cfg
}

func body(ops, accounts int, asJSON, asProm bool, tracePath, serveAddr, dir string, stdout, stderr io.Writer) error {
	cfg := config()
	if dir != "" {
		heapDir, err := os.MkdirTemp(dir, "shstat-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(heapDir)
		cfg.Dir = heapDir
	}
	// The flight recorder is the one opt-in: turn it on whenever its trace is wanted.
	cfg.FlightRecorder = tracePath != "" || serveAddr != ""
	h, err := runWorkload(stableheap.Open(cfg), cfg, ops, accounts, stderr)
	if err != nil {
		return err
	}
	m := h.Metrics()
	switch {
	case asJSON:
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(m); err != nil {
			return err
		}
	case asProm:
		if err := m.WritePrometheus(stdout); err != nil {
			return err
		}
	default:
		printSummary(stdout, m)
	}

	if tracePath != "" {
		if err := os.WriteFile(tracePath, h.TraceJSON(), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "trace written to %s (open in about://tracing or ui.perfetto.dev)\n", tracePath)
	}
	if serveAddr != "" {
		srv, err := h.ServeMetrics(serveAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "serving http://%s/ (metrics, metrics.json, trace); ctrl-c to stop\n", srv.Addr())
		select {}
	}
	return nil
}

// runWorkload is shstat's scenario on h, freshly formatted with cfg — on
// files when cfg.Dir is set — and returns the heap it leaves, still open.
func runWorkload(h *stableheap.Heap, cfg stableheap.Config, ops, accounts int, stderr io.Writer) (*stableheap.Heap, error) {
	rng := rand.New(rand.NewSource(42))
	fanout := 1
	for fanout*fanout < accounts {
		fanout++
	}
	bank, err := workload.NewBank(h, 0, accounts, fanout, 1000)
	if err != nil {
		return nil, err
	}

	// Burst one, with an incremental stable collection in flight so flip,
	// scan-step and trap histograms fill.
	h.CollectVolatile()
	h.StartStableCollection()
	if _, err := bank.RunMix(rng, ops, 50); err != nil {
		return nil, err
	}
	for h.StepStable() {
	}

	// Crash and recover: populates the recovery phase histograms.
	disk, logDev := h.Crash()
	if h, err = stableheap.Recover(cfg, disk, logDev); err != nil {
		return nil, err
	}
	bank.Reattach(h)

	// Burst two against the recovered heap, again with a collection in
	// flight (metrics live with the heap instance, so the reported GC
	// histograms must come from post-recovery activity).
	h.CollectVolatile()
	h.StartStableCollection()
	if _, err := bank.RunMix(rng, ops, 50); err != nil {
		return nil, err
	}
	for h.StepStable() {
	}
	// The transfer mix never allocates, so it leaves the generational
	// machinery idle; a volatile session-cache churn phase fills the
	// nursery (minor collections, promotion) and overlaps a
	// mostly-concurrent full collection with committing mutators (SATB
	// grays, read-barrier transports).
	if err := volatileChurn(h, 1500); err != nil {
		return nil, err
	}
	total, err := bank.Total()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "workload: %d accounts, 2×%d transfer txs, crash+recover in between; invariant total=%d\n",
		accounts, ops, total)
	return h, nil
}

// volatileChurn runs a session-cache workload against the volatile area:
// every op commits a fresh small object into a rolling volatile root
// (killing the previous one — classic fast-dying churn), and every fourth
// op parks a short chain in a ring whose entries outlive a minor
// collection, so survivors promote into the aged space and the
// generational write barrier fires on each park. Halfway through, a full
// collection starts; under ConcurrentVGC its copying scan overlaps the
// remaining commits (each commit assists by one quantum), firing the SATB
// deletion barrier and the read-barrier transport path.
func volatileChurn(h *stableheap.Heap, ops int) error {
	const ringSlots = 32
	tx := h.Begin()
	ring, err := tx.Alloc(200, ringSlots, 0)
	if err != nil {
		return err
	}
	if err := tx.SetVolRoot(30, ring); err != nil {
		return err
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	for op := 0; op < ops; op++ {
		if op == ops/2 {
			if _, err := h.CollectVolatile(); err != nil {
				return err
			}
		}
		tx := h.Begin()
		n, err := tx.Alloc(201, 1, 9)
		if err != nil {
			return err
		}
		if err := tx.SetData(n, 0, uint64(op)); err != nil {
			return err
		}
		if op%4 == 0 {
			var head *stableheap.Ref
			for k := 0; k < 3; k++ {
				c, err := tx.Alloc(202, 1, 1)
				if err != nil {
					return err
				}
				if err := tx.SetPtr(c, 0, head); err != nil {
					return err
				}
				head = c
			}
			ring, err := tx.VolRoot(30)
			if err != nil {
				return err
			}
			if err := tx.SetPtr(ring, (op/4)%ringSlots, head); err != nil {
				return err
			}
		}
		if err := tx.SetVolRoot(31, n); err != nil {
			return err
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	return nil
}

// printSummary renders the snapshot for humans: counters alphabetically,
// then every histogram as count / p50 / p90 / p99 / max.
func printSummary(w io.Writer, m stableheap.Metrics) {
	fmt.Fprintln(w, "counters:")
	names := make([]string, 0, len(m.Counters))
	for n := range m.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %d\n", n, m.Counters[n])
	}
	fmt.Fprintln(w, "\nlatency histograms (count / p50 / p90 / p99 / max):")
	names = names[:0]
	for n := range m.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := m.Histograms[n]
		if h.Count == 0 && !strings.HasPrefix(n, "wal_force_") && n != "wal_mutex_wait_ns" && n != "wal_commit_join_wait_ns" {
			continue // the shared-force histograms are shown even when nothing ever waited
		}
		if strings.HasSuffix(n, "_ns") {
			fmt.Fprintf(w, "  %-34s %6d  %10v %10v %10v %10v\n", n, h.Count,
				h.QuantileDur(0.5), h.QuantileDur(0.9), h.QuantileDur(0.99), h.MaxDur())
		} else {
			fmt.Fprintf(w, "  %-34s %6d  %10d %10d %10d %10d\n", n, h.Count,
				h.Quantile(0.5), h.Quantile(0.9), h.Quantile(0.99), h.Max)
		}
	}
	printRecoverySummary(w, m)
	printVGCSummary(w, m)
}

// printRecoverySummary answers "why did restart take that long" from the
// last recovery's metrics: the five phases in the order they ran (reopen:
// Open's device opens, before the heap existed), then the redo record
// counts.
func printRecoverySummary(w io.Writer, m stableheap.Metrics) {
	scanned, ok := m.Counters["recovery_redo_scanned_total"]
	if !ok {
		return
	}
	fmt.Fprintln(w, "\nrecovery (last restart):")
	var phases []string
	for _, p := range []struct{ label, hist string }{
		{"reopen", "recovery_reopen_ns"},
		{"analysis", "recovery_analysis_ns"},
		{"redo", "recovery_redo_ns"},
		{"undo", "recovery_undo_ns"},
		{"evacuation", "recovery_evacuate_ns"},
	} {
		if h := m.Histograms[p.hist]; h.Count > 0 {
			phases = append(phases, fmt.Sprintf("%s %v", p.label, h.MaxDur()))
		}
	}
	fmt.Fprintf(w, "  phases:  %s\n", strings.Join(phases, ", "))
	fmt.Fprintf(w, "  records: %d scanned, %d applied\n", scanned, m.Counters["recovery_redo_applied_total"])
}

// printVGCSummary derives the generational/concurrent volatile-GC story
// from the raw counters — the questions an operator tuning NurseryBytes or
// weighing ConcurrentVGC actually asks: what fraction of nursery
// allocation survived to promotion, how often each write barrier fired,
// and what the concurrent collector's stop-the-world slices (the flip and
// each scan quantum) cost next to a full stop-the-world pause.
func printVGCSummary(w io.Writer, m stableheap.Metrics) {
	alloc := m.Counters["vgc_nursery_alloc_words_total"]
	if alloc == 0 {
		return
	}
	fmt.Fprintln(w, "\nvolatile gc (generational + mostly-concurrent):")
	fmt.Fprintf(w, "  collections: %d minor, %d full (%d concurrent)\n",
		m.Counters["vgc_nursery_minor_total"],
		m.Counters["vgc_collections_total"],
		m.Counters["vgc_conc_collections_total"])
	promoted := m.Counters["vgc_nursery_promoted_words_total"]
	fmt.Fprintf(w, "  promotion rate: %.1f%% (%d of %d nursery-allocated words survived a minor collection)\n",
		100*float64(promoted)/float64(alloc), promoted, alloc)
	fmt.Fprintf(w, "  barrier hits: %d generational (aged slot -> nursery), %d SATB gray, %d read-barrier transports\n",
		m.Counters["vgc_nursery_barrier_hits_total"],
		m.Counters["vgc_conc_satb_gray_total"],
		m.Counters["vgc_conc_transports_total"])
	for _, p := range []struct{ label, hist string }{
		{"full-collection pause", "vgc_pause_ns"},
		{"minor pause", "vgc_minor_pause_ns"},
		{"concurrent flip pause", "vgc_conc_flip_pause_ns"},
		{"concurrent scan quantum", "vgc_conc_quantum_ns"},
	} {
		h, ok := m.Histograms[p.hist]
		if !ok || h.Count == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-26s p50 %v / p99 %v / max %v over %d\n",
			p.label+":", h.QuantileDur(0.5), h.QuantileDur(0.99), h.MaxDur(), h.Count)
	}
	if moves := m.Counters["gc_relocate_moves_total"]; moves > 0 {
		fmt.Fprintf(w, "  relocation: %d moves in %d batches, %.2f undo entries searched per move\n", moves,
			m.Counters["gc_relocate_batches_total"], float64(m.Counters["tx_utt_probes_total"])/float64(moves))
	}
}
