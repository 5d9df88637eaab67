package bench

import (
	"fmt"
	"time"

	"stableheap"
)

// tailUpdates runs n committed single-update transactions against the
// chain under slot 0 (the fixed "recent activity" recovery must replay).
func tailUpdates(h *stableheap.Heap, n int) error {
	for i := 0; i < n; i++ {
		tx := h.Begin()
		r, err := tx.Root(0)
		if err != nil {
			tx.Abort()
			return err
		}
		if err := tx.SetData(r, 0, uint64(i)); err != nil {
			tx.Abort()
			return err
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	return nil
}

// crashRestart crashes h, restarts it, and splits the restart's time in
// two: the device reopen (recovery_reopen_ns — the slot-header and
// log-segment parse, which grows with the files) and the recovery proper,
// which the paper bounds by the log since the checkpoint.
func crashRestart(cfg stableheap.Config, h *stableheap.Heap) (h2 *stableheap.Heap, reopen, recover time.Duration) {
	disk, logDev := h.Crash()
	start := time.Now()
	h2, err := stableheap.Recover(cfg, disk, logDev)
	if err != nil {
		panic(err)
	}
	total := time.Since(start)
	reopen = time.Duration(h2.Metrics().Hist("recovery_reopen_ns").Sum)
	return h2, reopen, total - reopen
}

// E4Recovery is the headline figure: recovery time as the heap grows, with
// a fixed amount of post-checkpoint activity. Our log-based recovery is
// flat; the Argus-style baseline — rebuilding by traversing the whole
// stable graph — grows linearly with the heap.
func E4Recovery() Table {
	t := Table{
		ID:     "E4",
		Title:  "recovery time vs heap size at fixed log tail (figure)",
		Claim:  "time for recovery is independent of heap size; graph-traversal recovery is linear in it",
		Header: []string{"live objects", "reopen", "recover", "redo records", "traversal baseline", "baseline/recover"},
	}
	const tail = 500
	for _, live := range []int{512, 1024, 2048, 4096, 8192} {
		cfg := cfgSized(live*4+16*1024, 16*1024)
		h := stableheap.Open(cfg)
		if err := buildStableChains(h, live); err != nil {
			panic(err)
		}
		// Checkpoint twice so the cleaner bounds the redo window, then a
		// fixed tail of activity.
		h.Checkpoint()
		h.Checkpoint()
		if err := tailUpdates(h, tail); err != nil {
			panic(err)
		}

		h2, reopen, recoverTime := crashRestart(cfg, h)
		res := h2.LastRecovery()

		// Baseline: reload the heap by traversing the entire stable
		// graph (what a recovery system without repeating history does).
		startT := time.Now()
		n, err := fullTraversal(h2)
		if err != nil {
			panic(err)
		}
		traversal := time.Since(startT)
		if n < live {
			panic(fmt.Sprintf("traversal saw %d of %d objects", n, live))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", live),
			dur(reopen),
			dur(recoverTime),
			fmt.Sprintf("%d", res.RedoScanned),
			dur(traversal),
			ratio(traversal, recoverTime),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("every row replays the same ~%d-update tail; redo records stay ~constant while the baseline grows with the heap", tail),
		"reopen is the devices' open (every slot header, every retained segment), outside the paper's claim and growing with the files: ROADMAP item 1")
	return t
}

// E5Checkpoint shows the knob the paper offers for recovery time: more
// frequent checkpoints mean a shorter redo tail.
func E5Checkpoint() Table {
	t := Table{
		ID:     "E5",
		Title:  "recovery time vs checkpoint interval (figure)",
		Claim:  "recovery time can be shortened using checkpoints",
		Header: []string{"checkpoint every", "checkpoints", "reopen", "recover", "redo records"},
	}
	const live, updates = 2048, 2000
	for _, interval := range []int{updates * 2, 1000, 250, 50} {
		cfg := cfgSized(live*4+16*1024, 16*1024)
		h := stableheap.Open(cfg)
		if err := buildStableChains(h, live); err != nil {
			panic(err)
		}
		for i := 0; i < updates; i++ {
			if err := tailUpdates(h, 1); err != nil {
				panic(err)
			}
			if (i+1)%interval == 0 {
				h.Checkpoint()
			}
		}
		cps := h.Metrics().Counter("checkpoint_taken_total")
		h2, reopen, elapsed := crashRestart(cfg, h)
		label := fmt.Sprintf("%d updates", interval)
		if interval >= updates {
			label = "never (after load)"
		}
		t.Rows = append(t.Rows, []string{
			label,
			fmt.Sprintf("%d", cps),
			dur(reopen),
			dur(elapsed),
			fmt.Sprintf("%d", h2.LastRecovery().RedoScanned),
		})
	}
	t.Notes = append(t.Notes,
		"checkpoints are one spooled record each (no synchronous writes); the master block advances lazily on commit forces")
	return t
}

// E7CrashDuringGC checks the paper's hardest promise: a crash in the
// middle of a collection still recovers in time independent of heap size —
// the checkpointed collector state plus the post-checkpoint flip/copy/scan
// records reconstruct the collection, which then resumes.
func E7CrashDuringGC() Table {
	t := Table{
		ID:     "E7",
		Title:  "recovery after a crash in mid-collection, vs heap size (figure)",
		Claim:  "fast recovery even if a crash occurs during garbage collection (§3.5.3)",
		Header: []string{"live objects", "scan progress", "reopen", "recover", "redo records", "GC resumed", "graph intact"},
	}
	for _, live := range []int{1024, 2048, 4096, 8192} {
		cfg := cfgSized(live*4+16*1024, 16*1024)
		h := stableheap.Open(cfg)
		if err := buildStableChains(h, live); err != nil {
			panic(err)
		}
		// Checkpoints are promoted by ordinary commit traffic (they are
		// never forced themselves), so tick a tiny transaction after
		// each.
		h.Checkpoint()
		if err := tailUpdates(h, 1); err != nil {
			panic(err)
		}
		h.Checkpoint()
		if err := tailUpdates(h, 1); err != nil {
			panic(err)
		}
		h.StartStableCollection()
		// Advance the collection with transactions committing alongside
		// (their forces carry the collector's records to stable storage,
		// as in any live system), checkpointing at the midpoint —
		// mid-collection checkpoints are legal and bound redo.
		steps := 0
		mid := 4
		for h.StepStable() {
			steps++
			if err := tailUpdates(h, 1); err != nil {
				panic(err)
			}
			if steps == mid {
				h.Checkpoint()
			}
			if steps >= 2*mid {
				break
			}
		}
		if err := tailUpdates(h, 1); err != nil { // promotes the mid-GC checkpoint
			panic(err)
		}
		active := h.StableCollector().Active()

		h2, reopen, elapsed := crashRestart(cfg, h)
		resumed := h2.StableCollector().Active()
		for h2.StepStable() {
		}
		n, err := fullTraversal(h2)
		if err != nil {
			panic(err)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", live),
			fmt.Sprintf("%d steps (active=%v)", steps, active),
			dur(reopen),
			dur(elapsed),
			fmt.Sprintf("%d", h2.LastRecovery().RedoScanned),
			fmt.Sprintf("%v", resumed),
			fmt.Sprintf("%v (%d objs)", n >= live, n),
		})
	}
	t.Notes = append(t.Notes,
		"recovery never traverses the heap: the interrupted collection is reconstructed from the checkpoint + replayed collector records and finishes incrementally afterwards")
	return t
}
