package bench

import (
	"fmt"
	"time"

	"stableheap"
)

// E8Tracking measures the concurrent stability tracker (Ch. 5): the
// commit-time cost of stabilizing a newly reachable closure, as a function
// of closure size, plus the incremental cost when most of the closure is
// already stable (the AS-bit early exit).
func E8Tracking() Table {
	t := Table{
		ID:     "E8",
		Title:  "stability tracking cost vs newly stable closure size (table)",
		Claim:  "commit pays the base image of each newly stable object, one record per run of them; already-stable objects cost one bit test",
		Header: []string{"closure size", "commit latency", "base bytes", "objects tracked", "per object"},
	}
	for _, size := range []int{1, 10, 100, 1000} {
		cfg := cfgSized(64*1024, 32*1024)
		h := stableheap.Open(cfg)
		// Build the volatile chain in one transaction but publish it in
		// a second, so the timed commit isolates tracking.
		tx := h.Begin()
		var head *stableheap.Ref
		for i := 0; i < size; i++ {
			n, err := tx.Alloc(1, 1, 1)
			if err != nil {
				panic(err)
			}
			if err := tx.SetPtr(n, 0, head); err != nil {
				panic(err)
			}
			head = n
		}
		if err := tx.SetVolRoot(0, head); err != nil {
			panic(err)
		}
		if err := tx.Commit(); err != nil {
			panic(err)
		}

		tracked0, logged0 := trackedAndLogged(h)
		tx2 := h.Begin()
		h2head, err := tx2.VolRoot(0)
		if err != nil {
			panic(err)
		}
		if err := tx2.SetRoot(0, h2head); err != nil {
			panic(err)
		}
		start := time.Now()
		if err := tx2.Commit(); err != nil {
			panic(err)
		}
		elapsed := time.Since(start)
		tracked1, logged1 := trackedAndLogged(h)
		tracked := tracked1 - tracked0
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", size),
			dur(elapsed),
			fmt.Sprintf("%d", logged1-logged0),
			fmt.Sprintf("%d", tracked),
			dur(elapsed / time.Duration(max64(tracked, 1))),
		})
	}

	// The re-publication case: making an already-stable closure reachable
	// from a second root tracks nothing.
	cfg := cfgSized(64*1024, 32*1024)
	h := stableheap.Open(cfg)
	if err := buildChain(h, 0, 1000); err != nil {
		panic(err)
	}
	tracked0, logged0 := trackedAndLogged(h)
	tx := h.Begin()
	r, _ := tx.Root(0)
	if err := tx.SetRoot(1, r); err != nil {
		panic(err)
	}
	start := time.Now()
	if err := tx.Commit(); err != nil {
		panic(err)
	}
	elapsed := time.Since(start)
	tracked1, logged1 := trackedAndLogged(h)
	t.Rows = append(t.Rows, []string{
		"1000 (already stable)",
		dur(elapsed),
		fmt.Sprintf("%d", logged1-logged0),
		fmt.Sprintf("%d", tracked1-tracked0),
		"-",
	})
	t.Notes = append(t.Notes,
		"tracking is a commit-side cost proportional to *newly* stable state only; the AS bit stops re-tracking at the first edge")
	return t
}

// trackedAndLogged reads the heap's tracked-object count and the bytes
// appended to its log, the two counters E8 reports per commit.
func trackedAndLogged(h *stableheap.Heap) (tracked, logged int64) {
	return h.TrackerStats().Objects, h.Log().Device().Stats().BytesAppended
}
