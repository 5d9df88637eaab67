package core

import (
	"errors"
	"strings"
	"testing"

	"stableheap/internal/gc"
	"stableheap/internal/storage"
	"stableheap/internal/storage/filestore"
	"stableheap/internal/word"
)

// smallCfg is a tiny heap for tests.
func smallCfg() Config {
	return Config{
		PageSize:      256,
		StableWords:   8 * 1024,
		VolatileWords: 4 * 1024,
	}
}

// mustOpen is Open, panicking where Open fails.
func mustOpen(cfg Config, db, lb storage.Backing) *Heap {
	hp, err := Open(cfg, db, lb)
	if err != nil {
		panic(err)
	}
	return hp
}

// openMem opens a fresh heap over two memory backings.
func openMem(cfg Config) *Heap {
	return mustOpen(cfg, storage.NewMemBacking(), storage.NewMemBacking())
}

// reopen restarts the heap that ran on disk and logDev: Open over their
// backings.
func reopen(cfg Config, disk *storage.Disk, logDev *storage.Log) (*Heap, error) {
	db, lb := storage.Backings(disk, logDev)
	return Open(cfg, db, lb)
}

// openDir opens the heap in cfg.Dir.
func openDir(cfg Config) (*Heap, error) {
	db, lb, err := filestore.Backings(cfg.Dir)
	if err != nil {
		return nil, err
	}
	return Open(cfg, db, lb)
}

func allStableCfg() Config {
	c := smallCfg()
	c.Undivided = true
	return c
}

// mustCommit / helpers.
func commit(t *testing.T, tr *Tx) {
	t.Helper()
	if err := tr.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
}

// buildList writes a linked list of n nodes (value base+i) into root slot.
func buildList(t *testing.T, hp *Heap, slot, n int, base uint64) {
	t.Helper()
	tr := hp.Begin()
	var head *Ref
	for i := n - 1; i >= 0; i-- {
		node, err := tr.Alloc(1, 1, 1)
		if err != nil {
			t.Fatalf("alloc: %v", err)
		}
		if err := tr.SetData(node, 0, base+uint64(i)); err != nil {
			t.Fatal(err)
		}
		if err := tr.SetPtr(node, 0, head); err != nil {
			t.Fatal(err)
		}
		head = node
	}
	if err := tr.SetRoot(slot, head); err != nil {
		t.Fatal(err)
	}
	commit(t, tr)
}

// readList walks root slot and returns the values.
func readList(t *testing.T, hp *Heap, slot int) []uint64 {
	t.Helper()
	tr := hp.Begin()
	defer tr.Abort()
	var out []uint64
	node, err := tr.Root(slot)
	if err != nil {
		t.Fatalf("root: %v", err)
	}
	for node != nil {
		v, err := tr.Data(node, 0)
		if err != nil {
			t.Fatalf("data: %v", err)
		}
		out = append(out, v)
		if node, err = tr.Ptr(node, 0); err != nil {
			t.Fatalf("ptr: %v", err)
		}
	}
	return out
}

func checkList(t *testing.T, hp *Heap, slot, n int, base uint64) {
	t.Helper()
	vals := readList(t, hp, slot)
	if len(vals) != n {
		t.Fatalf("list length = %d, want %d", len(vals), n)
	}
	for i, v := range vals {
		if v != base+uint64(i) {
			t.Fatalf("vals[%d] = %d, want %d", i, v, base+uint64(i))
		}
	}
}

func TestCommitReadBack(t *testing.T) {
	for _, cfg := range []Config{smallCfg(), allStableCfg()} {
		hp := openMem(cfg)
		buildList(t, hp, 0, 10, 100)
		checkList(t, hp, 0, 10, 100)
	}
}

func TestAbortRemovesEffects(t *testing.T) {
	hp := openMem(smallCfg())
	buildList(t, hp, 0, 3, 1)
	tr := hp.Begin()
	head, _ := tr.Root(0)
	if err := tr.SetData(head, 0, 999); err != nil {
		t.Fatal(err)
	}
	if err := tr.SetRoot(0, nil); err != nil {
		t.Fatal(err)
	}
	if err := tr.Abort(); err != nil {
		t.Fatal(err)
	}
	checkList(t, hp, 0, 3, 1)
}

func TestStabilityTrackingOnCommit(t *testing.T) {
	hp := openMem(smallCfg())
	if hp.LSCount() != 0 {
		t.Fatal("LS must start empty")
	}
	buildList(t, hp, 0, 5, 10)
	// The five nodes became stable at commit: LS has them, SRem has the
	// root slot.
	if got := hp.LSCount(); got != 5 {
		t.Fatalf("LS count = %d, want 5", got)
	}
	if got := hp.SRemCount(); got != 1 {
		t.Fatalf("SRem count = %d, want 1", got)
	}
	if hp.Metrics().Counter("track_objects_total") != 5 {
		t.Fatal("tracker must report 5 objects")
	}
}

func TestVolatileCollectionMovesNewlyStable(t *testing.T) {
	hp := openMem(smallCfg())
	buildList(t, hp, 0, 5, 10)
	moved, err := hp.CollectVolatile()
	if err != nil {
		t.Fatal(err)
	}
	if moved != 5 {
		t.Fatalf("moved = %d, want 5", moved)
	}
	if hp.LSCount() != 0 || hp.SRemCount() != 0 {
		t.Fatal("LS and SRem must drain after the move")
	}
	checkList(t, hp, 0, 5, 10)
}

func TestVolatileCollectionDropsGarbage(t *testing.T) {
	hp := openMem(smallCfg())
	tr := hp.Begin()
	for i := 0; i < 50; i++ {
		if _, err := tr.Alloc(1, 0, 4); err != nil {
			t.Fatal(err)
		}
	}
	commit(t, tr)
	if _, err := hp.CollectVolatile(); err != nil {
		t.Fatal(err)
	}
	// Only the volatile root object itself survives.
	if n := hp.Metrics().Counter("vgc_copied_objects_total"); n != 1 {
		t.Fatalf("garbage copied: %d objects, want 1 (the volatile root object)", n)
	}
}

func TestUncommittedVolatileTargetSurvivesVolatileGC(t *testing.T) {
	hp := openMem(smallCfg())
	tr := hp.Begin()
	node, _ := tr.Alloc(1, 0, 1)
	tr.SetData(node, 0, 77)
	// Keep it reachable only through the volatile root.
	if err := tr.SetVolRoot(0, node); err != nil {
		t.Fatal(err)
	}
	if _, err := hp.CollectVolatile(); err != nil {
		t.Fatal(err)
	}
	got, err := tr.Data(node, 0)
	if err != nil || got != 77 {
		t.Fatalf("object lost across volatile GC: %v %d", err, got)
	}
	commit(t, tr)
}

// The per-mode version, with a reader walking mid-collection and the crash
// matrix behind it, is crashtest.TestStableGCModeTable.
func TestStableCollectionPreservesGraph(t *testing.T) {
	hp := openMem(smallCfg())
	buildList(t, hp, 0, 20, 500)
	if _, err := hp.CollectVolatile(); err != nil { // move into stable area
		t.Fatal(err)
	}
	hp.CollectStable()
	checkList(t, hp, 0, 20, 500)
	hp.CollectStable()
	checkList(t, hp, 0, 20, 500)
	if hp.Metrics().Counter("gc_collections_total") != 2 {
		t.Fatal("expected two collections")
	}
}

func TestIncrementalStableCollectionWithMutator(t *testing.T) {
	cfg := smallCfg()
	hp := openMem(cfg)
	buildList(t, hp, 0, 30, 1000)
	hp.CollectVolatile()
	hp.StartStableCollection()
	// Mutate and read while the collection is in flight.
	for i := 0; i < 10; i++ {
		checkList(t, hp, 0, 30, 1000)
		tr := hp.Begin()
		head, _ := tr.Root(0)
		if err := tr.SetData(head, 0, 1000); err != nil {
			t.Fatal(err)
		}
		commit(t, tr)
		hp.StepStable()
	}
	for hp.StepStable() {
	}
	checkList(t, hp, 0, 30, 1000)
}

func TestCrashRecoveryCommittedSurvives(t *testing.T) {
	hp := openMem(smallCfg())
	buildList(t, hp, 0, 8, 40)
	disk, logDev := hp.Crash()
	hp2, err := reopen(smallCfg(), disk, logDev)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	checkList(t, hp2, 0, 8, 40)
}

func TestCrashRecoveryUncommittedVanishes(t *testing.T) {
	hp := openMem(smallCfg())
	buildList(t, hp, 0, 3, 7)
	tr := hp.Begin()
	head, _ := tr.Root(0)
	tr.SetData(head, 0, 666)
	tr.SetRoot(1, head)
	// No commit: crash.
	disk, logDev := hp.Crash()
	hp2, err := reopen(smallCfg(), disk, logDev)
	if err != nil {
		t.Fatal(err)
	}
	checkList(t, hp2, 0, 3, 7)
	tr2 := hp2.Begin()
	defer tr2.Abort()
	if r, _ := tr2.Root(1); r != nil {
		t.Fatal("uncommitted root store must not survive")
	}
}

func TestCrashRecoveryLoserUndoneOnDisk(t *testing.T) {
	hp := openMem(smallCfg())
	buildList(t, hp, 0, 3, 7)
	hp.CollectVolatile() // objects now in the stable area
	tr := hp.Begin()
	head, _ := tr.Root(0)
	tr.SetData(head, 0, 666)
	// Flush the dirty page so the uncommitted value reaches disk; the
	// WAL constraint forces the update record out with it.
	hp.Mem().FlushAll()
	disk, logDev := hp.Crash()
	hp2, err := reopen(smallCfg(), disk, logDev)
	if err != nil {
		t.Fatal(err)
	}
	checkList(t, hp2, 0, 3, 7) // 666 must have been rolled back
}

func TestRecoveryEvacuatesNewlyStable(t *testing.T) {
	hp := openMem(smallCfg())
	buildList(t, hp, 0, 6, 70) // committed, tracked, NOT yet moved
	if hp.LSCount() != 6 {
		t.Fatal("precondition: LS populated")
	}
	disk, logDev := hp.Crash()
	hp2, err := reopen(smallCfg(), disk, logDev)
	if err != nil {
		t.Fatal(err)
	}
	// Recovery re-materialized the newly stable objects from base
	// records and evacuated them into the stable area.
	if hp2.LSCount() != 0 {
		t.Fatal("LS must drain during recovery")
	}
	checkList(t, hp2, 0, 6, 70)
	if n := hp2.Metrics().Counter("vgc_moved_objects_total"); n != 6 {
		t.Fatalf("moved %d, want 6", n)
	}
}

func TestCrashDuringStableCollection(t *testing.T) {
	cfg := smallCfg()
	hp := openMem(cfg)
	buildList(t, hp, 0, 25, 900)
	hp.CollectVolatile()
	hp.StartStableCollection()
	hp.StepStable() // partial progress
	hp.Checkpoint() // checkpoint mid-collection
	hp.StepStable()
	disk, logDev := hp.Crash()
	hp2, err := reopen(cfg, disk, logDev)
	if err != nil {
		t.Fatal(err)
	}
	// The interrupted collection resumes and finishes.
	if hp2.LastRecovery() == nil {
		t.Fatal("recovery diagnostics missing")
	}
	checkList(t, hp2, 0, 25, 900)
	for hp2.StepStable() {
	}
	checkList(t, hp2, 0, 25, 900)
}

func TestRecoveryIdempotent(t *testing.T) {
	hp := openMem(smallCfg())
	buildList(t, hp, 0, 4, 11)
	disk, logDev := hp.Crash()
	// First recovery crashes immediately (nothing flushed, log tail
	// from recovery lost).
	hp2, err := reopen(smallCfg(), disk, logDev)
	if err != nil {
		t.Fatal(err)
	}
	disk2, logDev2 := hp2.Crash()
	hp3, err := reopen(smallCfg(), disk2, logDev2)
	if err != nil {
		t.Fatal(err)
	}
	checkList(t, hp3, 0, 4, 11)
}

func TestLockConflictFailsFast(t *testing.T) {
	hp := openMem(smallCfg())
	buildList(t, hp, 0, 1, 5)
	t1 := hp.Begin()
	head1, _ := t1.Root(0)
	if err := t1.SetData(head1, 0, 50); err != nil {
		t.Fatal(err)
	}
	t2 := hp.Begin()
	head2, err := t2.Root(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Data(head2, 0); err != ErrConflict {
		t.Fatalf("expected conflict, got %v", err)
	}
	if err := t2.Abort(); err != nil {
		t.Fatal(err)
	}
	commit(t, t1)
	checkList(t, hp, 0, 1, 50)
}

func TestSerializabilityTwoCounters(t *testing.T) {
	hp := openMem(smallCfg())
	// One committed counter object.
	tr := hp.Begin()
	c, _ := tr.Alloc(1, 0, 1)
	tr.SetData(c, 0, 0)
	tr.SetRoot(0, c)
	commit(t, tr)
	hp.CollectVolatile()
	// Sequential increments from distinct transactions.
	for i := 0; i < 10; i++ {
		tr := hp.Begin()
		cr, _ := tr.Root(0)
		v, _ := tr.Data(cr, 0)
		if err := tr.SetData(cr, 0, v+1); err != nil {
			t.Fatal(err)
		}
		commit(t, tr)
	}
	tr2 := hp.Begin()
	defer tr2.Abort()
	cr, _ := tr2.Root(0)
	if v, _ := tr2.Data(cr, 0); v != 10 {
		t.Fatalf("counter = %d, want 10", v)
	}
}

func TestAllStableModeLogsEverything(t *testing.T) {
	hp := openMem(allStableCfg())
	buildList(t, hp, 0, 5, 1)
	if hp.Metrics().Counter("tx_volatile_writes_total") != 0 {
		t.Fatal("all-stable mode must not use volatile writes")
	}
	if hp.Metrics().Counter("tx_updates_total") == 0 {
		t.Fatal("expected logged updates")
	}
	disk, logDev := hp.Crash()
	hp2, err := reopen(allStableCfg(), disk, logDev)
	if err != nil {
		t.Fatal(err)
	}
	checkList(t, hp2, 0, 5, 1)
}

func TestDividedModeVolatileWritesUnlogged(t *testing.T) {
	hp := openMem(smallCfg())
	tr := hp.Begin()
	n, _ := tr.Alloc(1, 0, 1)
	before, _ := hp.Log().TypeStats(0) // total appends proxy below
	_ = before
	appends0 := hp.Log().Device().Stats().Appends
	for i := 0; i < 20; i++ {
		if err := tr.SetData(n, 0, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if hp.Log().Device().Stats().Appends != appends0 {
		t.Fatal("volatile data writes must not append to the log")
	}
	commit(t, tr)
}

func TestManyCollectionsStress(t *testing.T) {
	cfg := smallCfg()
	cfg.StableWords = 4 * 1024
	cfg.VolatileWords = 2 * 1024
	hp := openMem(cfg)
	// Repeatedly rebuild a list and churn garbage to force repeated
	// collections of both areas.
	for round := 0; round < 30; round++ {
		buildList(t, hp, 0, 10, uint64(round*100))
		tr := hp.Begin()
		for i := 0; i < 40; i++ {
			if _, err := tr.Alloc(1, 0, 6); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		commit(t, tr)
		checkList(t, hp, 0, 10, uint64(round*100))
	}
	if m := hp.Metrics(); m.Counter("vgc_collections_total") == 0 && m.Counter("vgc_nursery_minor_total") == 0 {
		t.Fatal("expected volatile collections (full or minor)")
	}
	checkList(t, hp, 0, 10, 2900)
}

func TestCloseAndRecoverCleanly(t *testing.T) {
	hp := openMem(smallCfg())
	buildList(t, hp, 0, 5, 3)
	hp.Close()
	disk, logDev := hp.Devices()
	hp2, err := reopen(smallCfg(), disk, logDev)
	if err != nil {
		t.Fatal(err)
	}
	checkList(t, hp2, 0, 5, 3)
	if len(hp2.LastRecovery().Losers) != 0 {
		t.Fatal("clean shutdown must leave no losers")
	}
}

func TestCheckpointBoundsRedo(t *testing.T) {
	hp := openMem(smallCfg())
	buildList(t, hp, 0, 5, 3)
	hp.CollectVolatile()
	hp.Checkpoint()
	// One more small committed change after the checkpoint.
	tr := hp.Begin()
	head, _ := tr.Root(0)
	tr.SetData(head, 0, 3)
	commit(t, tr)
	disk, logDev := hp.Crash()
	hp2, err := reopen(smallCfg(), disk, logDev)
	if err != nil {
		t.Fatal(err)
	}
	checkList(t, hp2, 0, 5, 3)
	// Redo must have started at/after the checkpoint-ish region, not at
	// the beginning of history.
	if hp2.LastRecovery().RedoStart == 1 {
		t.Fatal("redo started at the very beginning despite a checkpoint")
	}
}

func TestRootOutOfRange(t *testing.T) {
	hp := openMem(smallCfg())
	tr := hp.Begin()
	defer tr.Abort()
	if _, err := tr.Root(10000); err == nil {
		t.Fatal("expected range error")
	}
	if err := tr.SetRoot(-1, nil); err == nil {
		t.Fatal("expected range error")
	}
}

func TestOpsAfterCommitFail(t *testing.T) {
	hp := openMem(smallCfg())
	tr := hp.Begin()
	n, _ := tr.Alloc(1, 0, 1)
	commit(t, tr)
	if _, err := tr.Data(n, 0); err != ErrTxDone {
		t.Fatalf("got %v, want ErrTxDone", err)
	}
	if err := tr.Commit(); err != ErrTxDone {
		t.Fatal("double commit must fail")
	}
}

func TestRefsSurviveStableFlipMidTransaction(t *testing.T) {
	hp := openMem(smallCfg())
	buildList(t, hp, 0, 4, 20)
	hp.CollectVolatile()
	tr := hp.Begin()
	head, _ := tr.Root(0)
	before := head.Addr()
	hp.CollectStable() // moves everything (STW via Finish)
	if head.Addr() == before {
		t.Fatal("flip must rewrite registered handles")
	}
	if v, err := tr.Data(head, 0); err != nil || v != 20 {
		t.Fatalf("handle stale after flip: %v %d", err, v)
	}
	commit(t, tr)
}

func TestUndoAfterObjectMovedByCollector(t *testing.T) {
	hp := openMem(smallCfg())
	buildList(t, hp, 0, 2, 5)
	hp.CollectVolatile()
	tr := hp.Begin()
	head, _ := tr.Root(0)
	tr.SetData(head, 0, 999)           // logged update at pre-flip address
	hp.CollectStable()                 // object moves; UTT must track it
	if err := tr.Abort(); err != nil { // undo at the translated address
		t.Fatal(err)
	}
	checkList(t, hp, 0, 2, 5)
}

func TestUndoValueRootSurvivesCollection(t *testing.T) {
	// A pointer overwritten by an active transaction is reachable only
	// from undo information; the collector must keep it alive (§3.5.2).
	hp := openMem(smallCfg())
	buildList(t, hp, 0, 1, 42) // root → node(42)
	buildList(t, hp, 1, 1, 43) // root1 → node(43)
	hp.CollectVolatile()
	tr := hp.Begin()
	n43, _ := tr.Root(1)
	// Overwrite root slot 0: node(42) is now reachable ONLY from tr's
	// undo record.
	if err := tr.SetRoot(0, n43); err != nil {
		t.Fatal(err)
	}
	hp.CollectStable() // node(42) must be retained as an undo root
	if err := tr.Abort(); err != nil {
		t.Fatal(err)
	}
	checkList(t, hp, 0, 1, 42) // restored pointer must be valid
	checkList(t, hp, 1, 1, 43)
}

func TestRecoverFromLogAloneMediaFailure(t *testing.T) {
	hp := openMem(smallCfg())
	buildList(t, hp, 0, 6, 50)
	hp.CollectVolatile()
	hp.CollectStable()
	buildList(t, hp, 1, 4, 500)
	// Total media failure: the disk is destroyed; only the log survives
	// (forced prefix — the archive copy would be the full log).
	// Open over a blank page store and the log finds no master over a
	// log that holds records, and rebuilds every page from the log.
	_, lb := storage.Backings(hp.Crash())
	hp2, err := Open(smallCfg(), storage.NewMemBacking(), lb)
	if err != nil {
		t.Fatal(err)
	}
	checkList(t, hp2, 0, 6, 50)
	checkList(t, hp2, 1, 4, 500)
}

func TestRecoverFromLogRejectsTruncated(t *testing.T) {
	cfg := smallCfg()
	cfg.LogSegBytes = 1024 // small enough that the checkpoints below free a segment
	hp := openMem(cfg)
	buildList(t, hp, 0, 3, 1)
	// Aggressive truncation discards the early checkpoints.
	hp.Checkpoint()
	tr := hp.Begin()
	r, _ := tr.Root(0)
	tr.SetData(r, 0, 1)
	commit(t, tr)
	hp.Checkpoint()
	tr2 := hp.Begin()
	r2, _ := tr2.Root(0)
	tr2.SetData(r2, 0, 1)
	commit(t, tr2)
	hp.Mem().FlushAll()
	hp.Checkpoint()
	tr3 := hp.Begin()
	r3, _ := tr3.Root(0)
	tr3.SetData(r3, 0, 1)
	commit(t, tr3)
	hp.TruncateLog()
	_, logDev := hp.Crash()
	if logDev.TruncLSN() <= 1 {
		t.Skip("truncation did not free a segment at this workload size")
	}
	_, lb := storage.Backings(nil, logDev)
	if _, err := Open(cfg, storage.NewMemBacking(), lb); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("media recovery from a truncated log: %v, want a refusal naming the truncation", err)
	}
}

func TestTruncationUnderLoadKeepsRecovering(t *testing.T) {
	cfg := smallCfg()
	cfg.LogSegBytes = 4 * 1024
	hp := openMem(cfg)
	buildList(t, hp, 0, 10, 1)
	hp.CollectVolatile()
	for phase := 0; phase < 5; phase++ {
		for i := 0; i < 100; i++ {
			tr := hp.Begin()
			r, _ := tr.Root(0)
			if err := tr.SetData(r, 0, uint64(phase*1000+i)); err != nil {
				t.Fatal(err)
			}
			commit(t, tr)
		}
		hp.Checkpoint()
		tr := hp.Begin()
		r, _ := tr.Root(0)
		tr.SetData(r, 0, uint64(phase*1000+100))
		commit(t, tr) // promote the checkpoint
		hp.TruncateLog()
		// Crash and recover from the truncated log at every phase.
		disk, logDev := hp.Crash()
		hp2, err := reopen(cfg, disk, logDev)
		if err != nil {
			t.Fatalf("phase %d: %v", phase, err)
		}
		tr2 := hp2.Begin()
		r2, _ := tr2.Root(0)
		if v, _ := tr2.Data(r2, 0); v != uint64(phase*1000+100) {
			t.Fatalf("phase %d: value %d", phase, v)
		}
		tr2.Abort()
		hp = hp2
	}
	if hp.Log().Device().TruncLSN() <= 1 {
		t.Fatal("truncation never reclaimed anything")
	}
}

// TestValidateRejects: the two configurations no heap can honour are turned
// away on every path Open takes, by the message that names the field.
func TestValidateRejects(t *testing.T) {
	for _, tc := range []struct {
		field string
		mut   func(*Config)
	}{
		{"Config.StableGC", func(c *Config) { c.StableGC = gc.Concurrent + 1 }},
		{"Config.ConcurrentVGC", func(c *Config) { c.Undivided, c.ConcurrentVGC = true, true }},
	} {
		good := smallCfg()
		disk, logDev := openMem(good).Crash()
		bad := good
		tc.mut(&bad)
		dirBad := bad
		dirBad.Dir = t.TempDir()
		_, lb := storage.Backings(nil, logDev)

		for name, open := range map[string]func() (*Heap, error){
			"format":         func() (*Heap, error) { return Open(bad, storage.NewMemBacking(), storage.NewMemBacking()) },
			"format on Dir":  func() (*Heap, error) { return openDir(dirBad) },
			"recover":        func() (*Heap, error) { return reopen(bad, disk, logDev) },
			"media recovery": func() (*Heap, error) { return Open(bad, storage.NewMemBacking(), lb) },
		} {
			if _, err := open(); err == nil || !strings.Contains(err.Error(), tc.field) {
				t.Fatalf("%s: error %v does not name %s", name, err, tc.field)
			}
		}
		// The rejected calls touched nothing: the crashed devices still recover.
		hp, err := reopen(good, disk, logDev)
		if err != nil {
			t.Fatal(err)
		}
		hp.Close()
	}
}

// TestZeroConfigIsDefault: a Config that states only sizes is the shipped
// configuration — same resolved Config, same layout, same collector, and
// the same log from the same work.
func TestZeroConfigIsDefault(t *testing.T) {
	def := DefaultConfig()
	sized := Config{PageSize: def.PageSize, StableWords: def.StableWords,
		VolatileWords: def.VolatileWords, NumRoots: def.NumRoots}
	for _, cfg := range []Config{{}, sized} {
		a, b := openMem(cfg), openMem(def)
		if a.Config() != b.Config() {
			t.Fatalf("resolved configs differ:\n%+v\n%+v", a.Config(), b.Config())
		}
		if a.Config().StableGC != gc.Ellis || a.Config().Undivided || a.vgc == nil {
			t.Fatalf("zero Config is not the divided Ellis heap: %+v", a.Config())
		}
		for _, hp := range []*Heap{a, b} {
			buildList(t, hp, 0, 40, 100)
			if _, err := hp.CollectVolatile(); err != nil {
				t.Fatal(err)
			}
			hp.StartStableCollection()
			checkList(t, hp, 0, 40, 100)
			hp.CollectStable()
		}
		if a.stableHi != b.stableHi || a.volHi != b.volHi || a.nurHi != b.nurHi {
			t.Fatal("layouts differ")
		}
		if ea, eb := a.logDev.EndLSN(), b.logDev.EndLSN(); ea != eb {
			t.Fatalf("same work, different logs: end LSN %d vs %d", ea, eb)
		}
		if ta, tb := a.Metrics().Counter("gc_barrier_traps_total"), b.Metrics().Counter("gc_barrier_traps_total"); ta != tb || ta == 0 {
			t.Fatalf("read-barrier traps %d vs %d, want equal and nonzero", ta, tb)
		}
	}
}

// TestRecoverRefusesLostWrite: a page write whose end-write record reached
// the stable log, but whose bytes the disk then lost — what a first write
// torn before its slot header landed reads as — is refused with a typed
// CorruptPageError, not skipped by redo as a clean page.
func TestRecoverRefusesLostWrite(t *testing.T) {
	b, lb := storage.NewMemBacking(), storage.NewMemBacking()
	hp, err := Open(smallCfg(), b, lb)
	if err != nil {
		t.Fatal(err)
	}
	buildList(t, hp, 0, 4, 11)
	before := fileBytes(t, b, "pages.dat")
	hp.FlushResident(func(word.PageID) bool { return true })
	buildList(t, hp, 1, 1, 5) // its commit forces the end-write records
	hp.Crash()
	f, _ := b.Open("pages.dat", true)
	f.WriteAt(before, 0) // the flushed writes never reached the platter
	_, err = Open(smallCfg(), b, lb)
	var cp *storage.CorruptPageError
	if !errors.As(err, &cp) {
		t.Fatalf("recovery over a disk that lost certified writes: %v, want a CorruptPageError", err)
	}
}

func fileBytes(t *testing.T, b storage.Backing, name string) []byte {
	t.Helper()
	f, err := b.Open(name, false)
	if err != nil {
		t.Fatal(err)
	}
	size, _ := f.Size()
	buf := make([]byte, size)
	f.ReadAt(buf, 0)
	return buf
}
