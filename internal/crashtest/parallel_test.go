package crashtest

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"stableheap/internal/core"
	"stableheap/internal/recovery"
	"stableheap/internal/storage"
	"stableheap/internal/storage/filestore"
	"stableheap/internal/vm"
	"stableheap/internal/wal"
	"stableheap/internal/word"
)

// These tests are the tentpole equivalence obligation: replaying the same
// crash image with the sequential redoer and with the page-partitioned
// parallel engine must produce byte-identical stable-heap state — same
// recovered pages, page LSNs, dirty page table, undo log tail, and
// recovery result (DESIGN.md "Parallel recovery" gives the argument for
// why this holds).

// recoverImage runs the recovery engine directly over a crash image with
// the given redo worker count.
func recoverImage(t *testing.T, pageSize int, disk storage.PageStore, logDev storage.LogDevice, workers int) (*recovery.Result, *vm.Store) {
	t.Helper()
	mgr := wal.NewManager(logDev)
	mem := vm.New(vm.Config{PageSize: pageSize, LogFetches: true}, disk, mgr)
	res, err := recovery.Recover(mem, mgr, recovery.Options{RedoWorkers: workers})
	if err != nil {
		t.Fatalf("recover (workers=%d): %v", workers, err)
	}
	return res, mem
}

// logImage captures every retained log frame (undo appends records during
// recovery, so equivalent recoveries must leave equivalent logs).
func logImage(dev storage.LogDevice) ([]word.LSN, [][]byte) {
	var lsns []word.LSN
	var frames [][]byte
	storage.Scan(dev, dev.TruncLSN(), false, func(lsn word.LSN, data []byte) bool {
		lsns = append(lsns, lsn)
		frames = append(frames, append([]byte(nil), data...))
		return true
	})
	return lsns, frames
}

// compareRecoveries asserts that the sequential and parallel recoveries of
// the same crash image are byte-identical.
func compareRecoveries(t *testing.T, pageSize int, disk storage.PageStore, logDev storage.LogDevice, workers int) {
	t.Helper()
	seqDisk, seqLog := disk.Clone(), logDev.Clone()
	parDisk, parLog := disk.Clone(), logDev.Clone()

	seqRes, seqMem := recoverImage(t, pageSize, seqDisk, seqLog, 1)
	parRes, parMem := recoverImage(t, pageSize, parDisk, parLog, workers)

	if seqRes.RedoStart != parRes.RedoStart {
		t.Fatalf("RedoStart: seq %d, par %d", seqRes.RedoStart, parRes.RedoStart)
	}
	if seqRes.RedoScanned != parRes.RedoScanned {
		t.Fatalf("RedoScanned: seq %d, par %d", seqRes.RedoScanned, parRes.RedoScanned)
	}
	if seqRes.RedoApplied != parRes.RedoApplied {
		t.Fatalf("RedoApplied: seq %d, par %d", seqRes.RedoApplied, parRes.RedoApplied)
	}
	if !reflect.DeepEqual(seqRes.Losers, parRes.Losers) {
		t.Fatalf("Losers: seq %v, par %v", seqRes.Losers, parRes.Losers)
	}
	if !reflect.DeepEqual(seqRes.InDoubt, parRes.InDoubt) {
		t.Fatalf("InDoubt: seq %v, par %v", seqRes.InDoubt, parRes.InDoubt)
	}
	if !reflect.DeepEqual(seqRes.CP, parRes.CP) {
		t.Fatalf("reconstructed checkpoint state differs:\nseq %+v\npar %+v", seqRes.CP, parRes.CP)
	}

	// Undo appended the same rollback records at the same LSNs.
	if seqLog.EndLSN() != parLog.EndLSN() {
		t.Fatalf("log EndLSN: seq %d, par %d", seqLog.EndLSN(), parLog.EndLSN())
	}
	seqLSNs, seqFrames := logImage(seqLog)
	parLSNs, parFrames := logImage(parLog)
	if !reflect.DeepEqual(seqLSNs, parLSNs) || !reflect.DeepEqual(seqFrames, parFrames) {
		t.Fatalf("recovered logs differ (%d vs %d frames)", len(seqFrames), len(parFrames))
	}

	// Every page — on either disk or resident in either store — reads
	// identically with an identical page LSN.
	pages := map[word.PageID]bool{}
	for _, pg := range seqDisk.Pages() {
		pages[pg] = true
	}
	for _, pg := range parDisk.Pages() {
		pages[pg] = true
	}
	for _, pg := range seqMem.ResidentPages() {
		pages[pg] = true
	}
	for _, pg := range parMem.ResidentPages() {
		pages[pg] = true
	}
	for pg := range pages {
		if sl, pl := seqMem.PageLSN(pg), parMem.PageLSN(pg); sl != pl {
			t.Fatalf("page %d LSN: seq %d, par %d", pg, sl, pl)
		}
		sb := seqMem.ReadBytes(pg.Base(pageSize), pageSize)
		pb := parMem.ReadBytes(pg.Base(pageSize), pageSize)
		if !reflect.DeepEqual(sb, pb) {
			t.Fatalf("page %d contents differ after recovery", pg)
		}
	}

	// The rebuilt dirty page table matches (it seeds the post-recovery
	// checkpoint).
	if sd, pd := seqMem.DirtyPages(), parMem.DirtyPages(); !reflect.DeepEqual(sd, pd) {
		t.Fatalf("dirty pages: seq %v, par %v", sd, pd)
	}

	if parRes.Stats.RedoWorkers != workers {
		t.Fatalf("parallel recovery used %d workers, want %d", parRes.Stats.RedoWorkers, workers)
	}
}

// crashImage drives a random workload to a crash point, flushing a random
// subset of pages, and returns the surviving devices.
func crashImage(t *testing.T, c core.Config, seed int64, steps int, flushFrac float64, midGC bool) (storage.PageStore, storage.LogDevice) {
	t.Helper()
	return crashImageOn(t, c, seed, steps, flushFrac, midGC, storage.NewDisk(c.PageSize), storage.NewLog(c.LogSegBytes))
}

// crashImageOn is crashImage over the given (empty) devices.
func crashImageOn(t *testing.T, c core.Config, seed int64, steps int, flushFrac float64, midGC bool, disk storage.PageStore, logDev storage.LogDevice) (storage.PageStore, storage.LogDevice) {
	t.Helper()
	d := NewOn(c, seed, disk, logDev)
	for i := 0; i < steps; i++ {
		if err := d.Step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if midGC {
		// Leave collector copy/scan records in the redo range: checkpoint
		// first so redo starts near it, then advance a collection past the
		// checkpoint without finishing it.
		d.Heap().Checkpoint()
		d.Heap().StartStableCollection()
		for i := 0; i < 4; i++ {
			d.Heap().StepStable()
		}
		if err := d.Step(); err != nil {
			t.Fatalf("post-GC step: %v", err)
		}
	}
	rng := rand.New(rand.NewSource(seed * 7919))
	mem := d.Heap().Mem()
	for _, pg := range mem.ResidentPages() {
		if rng.Float64() < flushFrac {
			mem.FlushPage(pg)
		}
	}
	return d.Heap().Crash()
}

func TestParallelRedoEquivalentToSequential(t *testing.T) {
	base := cfg() // 256-byte pages, divided, Ellis, incremental
	contents := base
	contents.CopyContents = true
	cases := []struct {
		name      string
		cfg       core.Config
		midGC     bool
		flushFrac float64
	}{
		{"nothing-flushed", base, false, 0},
		{"half-flushed", base, false, 0.5},
		{"all-flushed", base, false, 1.0},
		{"mid-gc", base, true, 0.4},
		{"mid-gc-copy-contents", contents, true, 0.4},
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				disk, logDev := crashImage(t, tc.cfg, seed, 150, tc.flushFrac, tc.midGC)
				for _, workers := range []int{2, 4, 7} {
					compareRecoveries(t, tc.cfg.PageSize, disk, logDev, workers)
				}
			})
		}
	}
}

// TestParallelRedoOverFilesEquivalent is the regression test for the bug
// that kept tier-1 red on every machine with two cores: the file-backed
// log recycled its read buffer between scan batches while the parallel
// engine's workers still held zero-copy records aliasing it. The worker
// count is forced, so the test bites on a one-core box too (there the
// dispatcher runs a whole channel's worth of batches ahead of the workers).
func TestParallelRedoOverFilesEquivalent(t *testing.T) {
	c := cfg()
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			st, err := filestore.Open(t.TempDir(), filestore.Options{
				PageSize: c.PageSize, SegmentBytes: c.LogSegBytes, NoWriteBack: true})
			if err != nil {
				t.Fatalf("filestore.Open: %v", err)
			}
			defer st.Close()
			disk, logDev := crashImageOn(t, c, seed, 150, 0.4, true, st.Disk, st.Log)
			for _, workers := range []int{2, 4} {
				compareRecoveries(t, c.PageSize, disk, logDev, workers)
			}
		})
	}
}

// TestParallelRecoverEndToEnd recovers full heaps through core.Recover with
// the worker knob set, checking the recovered heap serves the committed
// state (the end-to-end path cmd users take).
func TestParallelRecoverEndToEnd(t *testing.T) {
	for seed := int64(10); seed <= 13; seed++ {
		c := cfg()
		c.RecoveryWorkers = 4
		d := New(c, seed)
		if err := d.Run(120, 0.08, 0.5, true); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if d.Stats().Crashes == 0 {
			t.Fatalf("seed %d: no crashes exercised", seed)
		}
	}
}
