// Package bench implements the reproduction's experiment suite (DESIGN.md
// §5, EXPERIMENTS.md): one function per table/figure, each returning a
// formatted Table. cmd/shbench prints them; bench_test.go additionally
// exposes the kernels as testing.B benchmarks.
//
// Absolute times are this machine's; the claims under test are *shapes* —
// who wins, what is flat versus what grows — so every table carries the
// simulation counters (records, pages, bytes) alongside wall-clock times.
package bench

import (
	"fmt"
	"strings"
	"time"

	"stableheap"
)

// Table is one experiment's result.
type Table struct {
	ID     string
	Title  string
	Claim  string // the paper claim the experiment checks
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render formats the table as aligned text.
func (t Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&b, "claim: %s\n", t.Claim)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// An Experiment is one table of the suite: its id (e.g. "e4"), what it
// reproduces, and how to run it.
type Experiment struct {
	ID, What string
	Run      func() Table
}

// Experiments is the suite, in order.
var Experiments = []Experiment{
	{"e1", "micro: cost of low-level recoverable actions", E1MicroOps},
	{"e2", "micro: collector step costs (flip, copy, scan, trap, GCEnd)", E2GCSteps},
	{"e3", "figure: GC pause vs live-set size, stop-the-world vs incremental", E3Pauses},
	{"e4", "figure: recovery time vs heap size (the headline claim)", E4Recovery},
	{"e5", "figure: recovery time vs checkpoint interval", E5Checkpoint},
	{"e6", "table: log volume by origin vs live fraction", E6LogVolume},
	{"e7", "figure: recovery after a crash during a collection, vs heap size", E7CrashDuringGC},
	{"e8", "table: stability tracking cost vs newly stable closure size", E8Tracking},
	{"e9", "table: heap-division benefit on churny workloads", E9Division},
	{"e10", "figure: read-barrier cost and trap skew (Ellis vs Baker)", E10Barrier},
	{"e11", "macro: transaction throughput across collector modes", E11Throughput},
	{"e12", "correctness: crash-matrix soundness sweep", E12CrashMatrix},
	{"e13", "extension: group commit (forces per commit, throughput)", E13GroupCommit},
	{"e14", "ablation: content-free vs content-carrying copy records", E14CopyContents},
	{"e15", "extension: log space bounded by truncation", E15Truncation},
	{"e19", "extension: nursery + mostly-concurrent volatile GC pauses", E19Nursery},
	{"e20", "extension: flight recorder + watchdog overhead on the hot path", E20Recorder},
	{"e22", "extension: mostly-concurrent stable GC stalls vs stop-the-world", E22StableConc},
	{"e23", "extension: partitioned multi-heap scaling and the cross-partition 2PC tax", E23Shard},
}

// ByID returns the experiment with the given id (e.g. "e4").
func ByID(id string) (Experiment, bool) {
	id = strings.ToLower(id)
	for _, e := range Experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// cfgSized builds the paper's configuration (divided, Ellis incremental)
// with the given per-semispace sizes (in words).
func cfgSized(stableWords, volatileWords int) stableheap.Config {
	return stableheap.Config{
		PageSize:      1024,
		StableWords:   stableWords,
		VolatileWords: volatileWords,
	}
}

// buildChain commits a linked list of n 3-word nodes under root slot,
// returning nothing; values are i.
func buildChain(h *stableheap.Heap, slot, n int) error {
	tx := h.Begin()
	var head *stableheap.Ref
	for i := n - 1; i >= 0; i-- {
		node, err := tx.Alloc(1, 1, 1)
		if err != nil {
			tx.Abort()
			return err
		}
		if err := tx.SetData(node, 0, uint64(i)); err != nil {
			tx.Abort()
			return err
		}
		if err := tx.SetPtr(node, 0, head); err != nil {
			tx.Abort()
			return err
		}
		head = node
	}
	if err := tx.SetRoot(slot, head); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

// buildStableChains commits chains under several roots and moves them into
// the stable area, producing liveWords of live stable data (approximately).
func buildStableChains(h *stableheap.Heap, liveObjects int) error {
	const perSlot = 512
	slot := 0
	remaining := liveObjects
	for remaining > 0 {
		n := perSlot
		if remaining < n {
			n = remaining
		}
		if err := buildChain(h, slot, n); err != nil {
			return err
		}
		if _, err := h.CollectVolatile(); err != nil {
			return err
		}
		slot++
		remaining -= n
	}
	return nil
}

// walkChain reads the whole chain under slot, returning nodes visited.
func walkChain(h *stableheap.Heap, slot int) (int, error) {
	tx := h.Begin()
	defer tx.Abort()
	node, err := tx.Root(slot)
	if err != nil {
		return 0, err
	}
	n := 0
	for node != nil {
		if _, err := tx.Data(node, 0); err != nil {
			return n, err
		}
		n++
		if node, err = tx.Ptr(node, 0); err != nil {
			return n, err
		}
	}
	return n, nil
}

// fullTraversal reads every object reachable from every root — the
// Argus-style recovery baseline whose cost is proportional to heap size.
func fullTraversal(h *stableheap.Heap) (int, error) {
	total := 0
	for slot := 0; slot < 32; slot++ {
		tx := h.Begin()
		r, err := tx.Root(slot)
		if err != nil {
			tx.Abort()
			return total, err
		}
		tx.Abort()
		if r == nil {
			continue
		}
		n, err := walkChain(h, slot)
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

func dur(d time.Duration) string {
	switch {
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/1e6)
	case d >= time.Microsecond:
		return fmt.Sprintf("%.1fµs", float64(d)/1e3)
	default:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	}
}

func ratio(a, b time.Duration) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1fx", float64(a)/float64(b))
}
