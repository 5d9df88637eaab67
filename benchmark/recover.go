package main

import (
	"fmt"
	"time"

	"stableheap"
	"stableheap/internal/workload"
)

// recSample is one timed crash recovery.
type recSample struct {
	totalMs     float64 // RecoverDir call → first committed transaction returns
	callMs      float64 // the RecoverDir call alone
	analysisMs  float64
	redoMs      float64
	undoMs      float64
	workers     int
	scanned     int
	applied     int
	firstCommit float64 // ms from RecoverDir's return to the first commit's
}

// reopenMs is what RecoverDir spent outside the three log passes: the file
// layer's reopen (slot-file and segment re-parse) and the post-recovery
// evacuation.
func (r recSample) reopenMs() float64 {
	return r.callMs - r.analysisMs - r.redoMs - r.undoMs
}

// crashRecover crashes h (the un-forced log spool is dropped, as a kill
// would drop it), recovers the directory and runs first, a transaction
// that must commit, on the recovered heap.
//
// RecoveryWorkers is pinned to 1: with the automatic worker count RecoverDir
// over files fails at GOMAXPROCS ≥ 2 (seed defect (a) in README.md).
func crashRecover(h *stableheap.Heap, cfg stableheap.Config, k *track, first func(*stableheap.Heap) error) (*stableheap.Heap, recSample, error) {
	h.Crash()
	cfg.RecoveryWorkers = 1
	var h2 *stableheap.Heap
	var err error
	t0 := time.Now()
	k.lifecycle(spRecoverDir, func() {
		// A recovery that panics is a failed recovery, to be counted and
		// reported like any other failed check, not the end of the run.
		defer func() {
			if v := recover(); v != nil {
				err = fmt.Errorf("panic: %v", v)
			}
		}()
		h2, err = stableheap.RecoverDir(cfg)
	})
	t1 := time.Now()
	if err != nil {
		return nil, recSample{}, fmt.Errorf("recover %s: %w", cfg.Dir, err)
	}
	if err := first(h2); err != nil {
		return h2, recSample{}, fmt.Errorf("first transaction after recovery: %w", err)
	}
	t2 := time.Now()
	res := h2.Internal().LastRecovery()
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	return h2, recSample{
		totalMs: ms(t2.Sub(t0)), callMs: ms(t1.Sub(t0)), firstCommit: ms(t2.Sub(t1)),
		analysisMs: ms(res.Stats.Analysis), redoMs: ms(res.Stats.Redo), undoMs: ms(res.Stats.Undo),
		workers: res.Stats.RedoWorkers, scanned: res.RedoScanned, applied: res.RedoApplied,
	}, nil
}

func (lh *loadHeap) reattach(h *stableheap.Heap) {
	lh.h = h
	if lh.bank != nil {
		lh.bank.Reattach(h)
	}
	for _, o := range []*workload.OO7{lh.oo7, lh.ballast} {
		if o != nil {
			o.Reattach(h)
		}
	}
}
