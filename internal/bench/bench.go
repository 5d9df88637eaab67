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

// All returns every experiment in order.
func All() []func() Table {
	return []func() Table{
		E1MicroOps, E2GCSteps, E3Pauses, E4Recovery, E5Checkpoint,
		E6LogVolume, E7CrashDuringGC, E8Tracking, E9Division,
		E10Barrier, E11Throughput, E12CrashMatrix,
		E13GroupCommit, E14CopyContents, E15Truncation,
		E19Nursery, E20Recorder, E22StableConc, E23Shard,
	}
}

// ByID returns the experiment with the given id (e.g. "e4").
func ByID(id string) (func() Table, bool) {
	m := map[string]func() Table{
		"e1": E1MicroOps, "e2": E2GCSteps, "e3": E3Pauses, "e4": E4Recovery,
		"e5": E5Checkpoint, "e6": E6LogVolume, "e7": E7CrashDuringGC,
		"e8": E8Tracking, "e9": E9Division, "e10": E10Barrier,
		"e11": E11Throughput, "e12": E12CrashMatrix,
		"e13": E13GroupCommit, "e14": E14CopyContents, "e15": E15Truncation,
		"e19": E19Nursery, "e20": E20Recorder, "e22": E22StableConc,
		"e23": E23Shard,
	}
	f, ok := m[strings.ToLower(id)]
	return f, ok
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
