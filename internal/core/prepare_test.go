package core

import (
	"testing"

	"stableheap/internal/wal"
	"stableheap/internal/word"
)

// prep sets up a committed counter and a prepared transaction that changed
// it to 999 (update) and published a new list under slot 1 (tracking).
func prep(t *testing.T, hp *Heap) (txID word.TxID) {
	t.Helper()
	mkCounter(t, hp, 0, 7)
	tr := hp.Begin()
	c, _ := tr.Root(0)
	if err := tr.SetData(c, 0, 999); err != nil {
		t.Fatal(err)
	}
	n, err := tr.Alloc(1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.SetData(n, 0, 55); err != nil {
		t.Fatal(err)
	}
	if err := tr.SetRoot(1, n); err != nil {
		t.Fatal(err)
	}
	if err := tr.Prepare(); err != nil {
		t.Fatal(err)
	}
	return word.TxID(tr.ID())
}

func TestPrepareThenCommitNoCrash(t *testing.T) {
	hp := openMem(smallCfg())
	mkCounter(t, hp, 0, 7)
	tr := hp.Begin()
	c, _ := tr.Root(0)
	tr.SetData(c, 0, 999)
	if err := tr.Prepare(); err != nil {
		t.Fatal(err)
	}
	// Prepared effects are invisible to others (locks held).
	other := hp.Begin()
	oc, _ := other.Root(0)
	if _, err := other.Data(oc, 0); err != ErrConflict {
		t.Fatalf("prepared data must stay locked: %v", err)
	}
	other.Abort()
	if err := tr.Commit(); err != nil {
		t.Fatal(err)
	}
	if v := counterVal(t, hp, 0); v != 999 {
		t.Fatalf("counter = %d", v)
	}
}

func TestPrepareThenAbortNoCrash(t *testing.T) {
	hp := openMem(smallCfg())
	mkCounter(t, hp, 0, 7)
	tr := hp.Begin()
	c, _ := tr.Root(0)
	tr.SetData(c, 0, 999)
	if err := tr.Prepare(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Abort(); err != nil {
		t.Fatal(err)
	}
	if v := counterVal(t, hp, 0); v != 7 {
		t.Fatalf("counter = %d", v)
	}
}

func TestInDoubtSurvivesCrashThenResolveCommit(t *testing.T) {
	hp := openMem(smallCfg())
	id := prep(t, hp)
	disk, logDev := hp.Crash()
	hp2, err := reopen(smallCfg(), disk, logDev)
	if err != nil {
		t.Fatal(err)
	}
	ids := hp2.InDoubt()
	if len(ids) != 1 || ids[0] != id {
		t.Fatalf("in-doubt = %v, want [%d]", ids, id)
	}
	// In-doubt data stays locked.
	tr := hp2.Begin()
	c, _ := tr.Root(0)
	if _, err := tr.Data(c, 0); err != ErrConflict {
		t.Fatalf("in-doubt data must be locked after recovery: %v", err)
	}
	tr.Abort()
	if err := hp2.ResolveCommit(id); err != nil {
		t.Fatal(err)
	}
	if v := counterVal(t, hp2, 0); v != 999 {
		t.Fatalf("counter = %d, want 999", v)
	}
	// The tracked object committed too.
	tr2 := hp2.Begin()
	defer tr2.Abort()
	n, err := tr2.Root(1)
	if err != nil || n == nil {
		t.Fatalf("tracked object lost: %v", err)
	}
	if v, _ := tr2.Data(n, 0); v != 55 {
		t.Fatalf("tracked value = %d", v)
	}
}

func TestInDoubtSurvivesCrashThenResolveAbort(t *testing.T) {
	hp := openMem(smallCfg())
	id := prep(t, hp)
	disk, logDev := hp.Crash()
	hp2, err := reopen(smallCfg(), disk, logDev)
	if err != nil {
		t.Fatal(err)
	}
	if err := hp2.ResolveAbort(id); err != nil {
		t.Fatal(err)
	}
	if v := counterVal(t, hp2, 0); v != 7 {
		t.Fatalf("counter = %d, want 7", v)
	}
	tr := hp2.Begin()
	defer tr.Abort()
	if n, _ := tr.Root(1); n != nil {
		t.Fatal("aborted publication must vanish")
	}
}

func TestInDoubtSurvivesSecondCrash(t *testing.T) {
	hp := openMem(smallCfg())
	id := prep(t, hp)
	disk, logDev := hp.Crash()
	hp2, err := reopen(smallCfg(), disk, logDev)
	if err != nil {
		t.Fatal(err)
	}
	// Crash again before resolution; the transaction stays in-doubt.
	disk2, logDev2 := hp2.Crash()
	hp3, err := reopen(smallCfg(), disk2, logDev2)
	if err != nil {
		t.Fatal(err)
	}
	ids := hp3.InDoubt()
	if len(ids) != 1 || ids[0] != id {
		t.Fatalf("in-doubt after second crash = %v", ids)
	}
	if err := hp3.ResolveCommit(id); err != nil {
		t.Fatal(err)
	}
	if v := counterVal(t, hp3, 0); v != 999 {
		t.Fatalf("counter = %d", v)
	}
}

func TestInDoubtAbortAfterCollectorMoves(t *testing.T) {
	hp := openMem(smallCfg())
	id := prep(t, hp)
	disk, logDev := hp.Crash()
	hp2, err := reopen(smallCfg(), disk, logDev)
	if err != nil {
		t.Fatal(err)
	}
	// Move everything (recovered evacuation already ran; now a stable
	// collection relocates the in-doubt object again) before aborting:
	// the undo must chase the moves.
	hp2.CollectStable()
	hp2.CollectStable()
	if err := hp2.ResolveAbort(id); err != nil {
		t.Fatal(err)
	}
	if v := counterVal(t, hp2, 0); v != 7 {
		t.Fatalf("counter = %d, want 7 after moves+abort", v)
	}
}

func TestInDoubtWithCheckpointBetween(t *testing.T) {
	hp := openMem(smallCfg())
	id := prep(t, hp)
	hp.Checkpoint()
	// Promote via another committing transaction — one that touches no
	// object the prepared transaction has locked.
	tr := hp.Begin()
	n, _ := tr.Alloc(1, 0, 1)
	if err := tr.SetVolRoot(0, n); err != nil {
		t.Fatal(err)
	}
	commit(t, tr)
	disk, logDev := hp.Crash()
	hp2, err := reopen(smallCfg(), disk, logDev)
	if err != nil {
		t.Fatal(err)
	}
	if ids := hp2.InDoubt(); len(ids) != 1 || ids[0] != id {
		t.Fatalf("in-doubt via checkpointed table = %v", ids)
	}
	if err := hp2.ResolveAbort(id); err != nil {
		t.Fatal(err)
	}
	if v := counterVal(t, hp2, 0); v != 7 {
		t.Fatalf("counter = %d", v)
	}
}

func TestResolveUnknownIDFails(t *testing.T) {
	hp := openMem(smallCfg())
	if err := hp.ResolveCommit(9999); err == nil {
		t.Fatal("unknown id must error")
	}
	if err := hp.ResolveAbort(9999); err == nil {
		t.Fatal("unknown id must error")
	}
}

func TestPrepareLogicalThenCrashResolveAbort(t *testing.T) {
	hp := openMem(smallCfg())
	mkCounter(t, hp, 0, 100)
	tr := hp.Begin()
	c, _ := tr.Root(0)
	if err := tr.AddData(c, 0, 23); err != nil {
		t.Fatal(err)
	}
	if err := tr.Prepare(); err != nil {
		t.Fatal(err)
	}
	id := word.TxID(tr.ID())
	disk, logDev := hp.Crash()
	hp2, err := reopen(smallCfg(), disk, logDev)
	if err != nil {
		t.Fatal(err)
	}
	hp2.CollectStable() // move before resolution
	if err := hp2.ResolveAbort(id); err != nil {
		t.Fatal(err)
	}
	if v := counterVal(t, hp2, 0); v != 100 {
		t.Fatalf("counter = %d, want 100", v)
	}
}

// TestInDoubtFirstRecordAllocSurvivesTruncation: a prepared transaction
// whose first record is an allocation (an undivided heap logs one), with its
// first update segments later. Restored in doubt, it must pin the log from
// the allocation: after checkpoints and TruncateLog, ResolveAbort still
// walks its whole chain.
func TestInDoubtFirstRecordAllocSurvivesTruncation(t *testing.T) {
	cfg := allStableCfg()
	cfg.LogSegBytes = 1024
	hp := openMem(cfg)
	mkCounter(t, hp, 0, 7)
	mkCounter(t, hp, 1, 0)
	bump := func(hp *Heap, v uint64) {
		tr := hp.Begin()
		c, _ := tr.Root(1)
		if err := tr.SetData(c, 0, v); err != nil {
			t.Fatal(err)
		}
		commit(t, tr)
	}
	for i := uint64(1); i <= 40; i++ { // segments the truncation can free
		bump(hp, i)
	}
	tr := hp.Begin()
	n, err := tr.Alloc(1, 0, 1) // the chain's first record
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(41); i <= 80; i++ { // segments between it and the first update
		bump(hp, i)
	}
	c, _ := tr.Root(0)
	if err := tr.SetData(c, 0, 999); err != nil {
		t.Fatal(err)
	}
	if err := tr.SetData(n, 0, 5); err != nil {
		t.Fatal(err)
	}
	if err := tr.Prepare(); err != nil {
		t.Fatal(err)
	}
	id := word.TxID(tr.ID())
	var allocLSN word.LSN
	hp.log.Scan(1, false, func(lsn word.LSN, r wal.Record) bool {
		if a, ok := r.(wal.AllocRec); ok && a.TxID == id {
			allocLSN = lsn
			return false
		}
		return true
	})
	disk, logDev := hp.Crash()
	hp2, err := reopen(cfg, disk, logDev)
	if err != nil {
		t.Fatal(err)
	}
	if ids := hp2.InDoubt(); len(ids) != 1 || ids[0] != id {
		t.Fatalf("in-doubt = %v, want [%d]", ids, id)
	}
	for i := uint64(0); i < 3; i++ { // each checkpoint promoted by a commit
		hp2.Checkpoint()
		bump(hp2, 100+i)
	}
	hp2.TruncateLog()
	if trunc := hp2.logDev.TruncLSN(); trunc <= 1 || trunc > allocLSN {
		t.Fatalf("truncation point %d, want past the log's start and at or below the allocation at %d", trunc, allocLSN)
	}
	if err := hp2.ResolveAbort(id); err != nil {
		t.Fatal(err)
	}
	if v := counterVal(t, hp2, 0); v != 7 {
		t.Fatalf("counter = %d, want 7", v)
	}
}
