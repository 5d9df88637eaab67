package bench

import (
	"fmt"
	"time"

	"stableheap"
)

// E1MicroOps measures the low-level recoverable actions (the reconstructed
// micro-measurements of §7.6): read, logged update, unlogged volatile
// write, allocation, and commit (the one synchronous log write).
func E1MicroOps() Table {
	h := stableheap.Open(cfgSized(64*1024, 32*1024))

	// One committed stable object and one volatile object to operate on.
	tx := h.Begin()
	st, _ := tx.Alloc(1, 0, 4)
	tx.SetRoot(0, st)
	if err := tx.Commit(); err != nil {
		panic(err)
	}
	h.CollectVolatile() // st now physically stable

	const iters = 2000
	t := Table{
		ID:     "E1",
		Title:  "cost of low-level recoverable actions (micro)",
		Claim:  "updates to stable state pay one spooled log record, never a synchronous write; volatile writes pay nothing",
		Header: []string{"action", "per-op", "log-bytes/op", "forces/op"},
	}

	dev := h.Log().Device()
	measure := func(label string, n int, f func(tx *stableheap.Tx, i int) error) {
		before := dev.Stats()
		tx := h.Begin()
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := f(tx, i); err != nil {
				panic(err)
			}
		}
		elapsed := time.Since(start)
		tx.Abort()
		after := dev.Stats()
		t.Rows = append(t.Rows, []string{
			label,
			dur(elapsed / time.Duration(n)),
			fmt.Sprintf("%.1f", float64(after.BytesAppended-before.BytesAppended)/float64(n)),
			fmt.Sprintf("%.3f", float64(after.Forces-before.Forces)/float64(n)),
		})
	}

	tx2 := h.Begin()
	stRef, _ := tx2.Root(0)
	tx2.Abort()
	_ = stRef

	measure("read (stable object)", iters, func(tx *stableheap.Tx, i int) error {
		r, err := tx.Root(0)
		if err != nil {
			return err
		}
		_, err = tx.Data(r, i%4)
		return err
	})
	measure("logged update (stable object)", iters, func(tx *stableheap.Tx, i int) error {
		r, err := tx.Root(0)
		if err != nil {
			return err
		}
		return tx.SetData(r, i%4, uint64(i))
	})
	measure("logical update (AddData)", iters, func(tx *stableheap.Tx, i int) error {
		r, err := tx.Root(0)
		if err != nil {
			return err
		}
		return tx.AddData(r, i%4, 1)
	})
	measure("volatile write (unlogged)", iters, func(tx *stableheap.Tx, i int) error {
		if i == 0 {
			v, err := tx.Alloc(1, 0, 4)
			if err != nil {
				return err
			}
			return tx.SetVolRoot(0, v)
		}
		v, err := tx.VolRoot(0)
		if err != nil {
			return err
		}
		return tx.SetData(v, i%4, uint64(i))
	})
	measure("allocate (volatile, 4 words)", iters, func(tx *stableheap.Tx, i int) error {
		_, err := tx.Alloc(1, 0, 3)
		return err
	})

	// Commit: measured over whole transactions.
	before := dev.Stats()
	start := time.Now()
	const commits = 500
	for i := 0; i < commits; i++ {
		tx := h.Begin()
		r, _ := tx.Root(0)
		if err := tx.SetData(r, 0, uint64(i)); err != nil {
			panic(err)
		}
		if err := tx.Commit(); err != nil {
			panic(err)
		}
	}
	elapsed := time.Since(start)
	after := dev.Stats()
	t.Rows = append(t.Rows, []string{
		"commit (1 update + force)",
		dur(elapsed / commits),
		fmt.Sprintf("%.1f", float64(after.BytesAppended-before.BytesAppended)/commits),
		fmt.Sprintf("%.3f", float64(after.Forces-before.Forces)/commits),
	})
	t.Notes = append(t.Notes,
		"forces/op: only commit performs a synchronous log write (group commit would amortize it)")
	return t
}

// E2GCSteps measures the collector's unit costs: flip, copy step, scan
// step (one page), read-barrier trap, and the GCEnd write-back.
func E2GCSteps() Table {
	cfg := cfgSized(64*1024, 32*1024)
	// Trap-driven for the reader (ops do not donate scan quanta), so the
	// trap row measures genuine barrier faults.
	cfg.StableGC = stableheap.EllisTrapDriven
	h := stableheap.Open(cfg)
	if err := buildStableChains(h, 4096); err != nil {
		panic(err)
	}

	// A full measured collection, with a pointer-chasing reader taking
	// read-barrier traps while it runs.
	before := h.Metrics()
	start := time.Now()
	h.StartStableCollection()
	flipDone := time.Now()
	reads := 0
	for h.StepStable() {
		if reads < 4 {
			tx := h.Begin()
			node, err := tx.Root(reads % 8)
			for node != nil && err == nil {
				node, err = tx.Ptr(node, 0)
			}
			tx.Abort()
			reads++
		}
	}
	total := time.Since(start)
	m := h.Metrics()
	delta := func(name string) int64 { return m.Counter(name) - before.Counter(name) }

	copies := delta("gc_copied_objects_total")
	pages := delta("gc_scanned_pages_total")
	// Always-on pause histograms; this run's deltas are the whole story
	// because the heap is fresh.
	flip, step, trap := m.Hist("gc_flip_ns"), m.Hist("gc_step_ns"), m.Hist("gc_trap_ns")

	t := Table{
		ID:     "E2",
		Title:  "collector step costs (micro)",
		Claim:  "every collector step is bounded and logged asynchronously; no step forces the log",
		Header: []string{"step", "count", "avg", "max"},
	}
	t.Rows = append(t.Rows,
		[]string{"flip (roots + protect)", fmt.Sprintf("%d", flip.Count), dur(flip.MeanDur()), dur(flip.MaxDur())},
		[]string{"scan step (1 page)", fmt.Sprintf("%d", step.Count), dur(step.MeanDur()), dur(step.MaxDur())},
		[]string{"copy step (derived)", fmt.Sprintf("%d", copies), dur((total - time.Duration(flip.Sum)) / time.Duration(max64(copies, 1))), "-"},
		[]string{"read-barrier trap", fmt.Sprintf("%d", trap.Count), dur(trap.MeanDur()), dur(trap.MaxDur())},
	)
	t.Rows = append(t.Rows, []string{
		"whole collection", "1", dur(total),
		fmt.Sprintf("(%d objs, %d pages, %d flushed at GCEnd)", copies, pages, delta("gc_end_flushes_total")),
	})
	t.Notes = append(t.Notes, fmt.Sprintf("flip-done after %s of %s total", dur(flipDone.Sub(start)), dur(total)))
	return t
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
