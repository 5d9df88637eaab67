package core

import (
	"testing"

	"stableheap/internal/word"
)

// The commit record is the commit point: once Commit has returned, no crash
// may roll the transaction back. A checkpoint taken while a commit waits on
// its force, and promoted by a later committer's force, must not list the
// committing transaction: recovery starts after the commit record, so it
// would find an open transaction with no commit and undo an acknowledged
// commit. These tests split a commit around that checkpoint, on a divided
// and an undivided heap, and for a plain commit and the coordinator's commit
// of an in-doubt transaction.

// commitPointConfigs are the heap layouts the split commits run on.
var commitPointConfigs = map[string]func() Config{"divided": smallCfg, "undivided": allStableCfg}

// checkpointDuringForce runs what happens between a commit record and the
// end of its force in the order that lost commits: a checkpoint, then
// another committer's force, which promotes that checkpoint (as
// finishCommit does). It then finishes tr's commit, crashes and reopens.
func checkpointDuringForce(t *testing.T, cfg Config, hp *Heap, tr *Tx, lsn word.LSN) *Heap {
	t.Helper()
	hp.Checkpoint()
	hp.log.ForceAll()
	hp.ckpt.Promote()
	hp.finishCommit(tr.t, lsn) // Commit returns here: the commit is acknowledged
	disk, logDev := hp.Crash()
	hp2, err := reopen(cfg, disk, logDev)
	if err != nil {
		t.Fatal(err)
	}
	if losers := hp2.LastRecovery().Losers; len(losers) != 0 {
		t.Errorf("recovery rolled back %v, want no loser", losers)
	}
	return hp2
}

func TestCheckpointDuringCommitForceKeepsCommit(t *testing.T) {
	for name, cfg := range commitPointConfigs {
		t.Run(name, func(t *testing.T) {
			hp := openMem(cfg())
			mkCounter(t, hp, 0, 1)
			tr := hp.Begin()
			c, err := tr.Root(0)
			if err == nil {
				err = tr.SetData(c, 0, 777)
			}
			if err != nil {
				t.Fatal(err)
			}
			// Commit's first step on the shared latch: the commit record.
			excl := hp.rlock()
			lsn := hp.txm.PrepareCommit(tr.t)
			hp.runlock(excl)
			hp2 := checkpointDuringForce(t, cfg(), hp, tr, lsn)
			if v := counterVal(t, hp2, 0); v != 777 {
				t.Fatalf("counter = %d after an acknowledged commit of 777", v)
			}
		})
	}
}

func TestCheckpointDuringResolveCommitKeepsCommit(t *testing.T) {
	for name, cfg := range commitPointConfigs {
		t.Run(name, func(t *testing.T) {
			hp := openMem(cfg())
			id := prep(t, hp)
			disk, logDev := hp.Crash()
			hp2, err := reopen(cfg(), disk, logDev)
			if err != nil {
				t.Fatal(err)
			}
			// ResolveCommit's first step, under the exclusive latch.
			hp2.lockExclusive()
			it := hp2.txm.Lookup(id)
			lsn := hp2.txm.PrepareCommit(it)
			hp2.unlockExclusive()
			hp3 := checkpointDuringForce(t, cfg(), hp2, &Tx{t: it}, lsn)
			if ids := hp3.InDoubt(); len(ids) != 0 {
				t.Errorf("in doubt after a resolved commit: %v", ids)
			}
			if v := counterVal(t, hp3, 0); v != 999 {
				t.Fatalf("counter = %d after the in-doubt commit of 999 was resolved", v)
			}
		})
	}
}

// A committing transaction holds its locks until FinishCommit, and a lock
// entry is keyed by its object's address. So its handles stay collector
// roots through the force: a collection in that window must move its
// objects, and their lock entries with them. Were a locked object freed
// instead, its entry would name dead space, and the next cycle, copying a
// live locked object there, would find the address already locked.
func TestCommittingTxLocksFollowTheirObjects(t *testing.T) {
	cfg := smallCfg()
	cfg.NurseryBytes = -1 // every volatile object is born with a lock entry
	hp := openMem(cfg)
	tr := hp.Begin()
	tmp, err := tr.Alloc(1, 0, 1) // reachable from nothing but tr's handle
	if err == nil {
		err = tr.SetData(tmp, 0, 9)
	}
	if err != nil {
		t.Fatal(err)
	}
	excl := hp.rlock()
	lsn := hp.txm.PrepareCommit(tr.t)
	hp.runlock(excl)
	collect := func(i int) {
		t.Helper()
		if _, err := hp.CollectVolatile(); err != nil {
			t.Fatal(err)
		}
		cur := hp.vgc.Current()
		for _, a := range hp.locks.HeldBy(tr.t.ID()) {
			if hp.inVolatile(a) && !cur.Contains(a) {
				t.Fatalf("collection %d: committing tx holds a lock on %v, outside the live semispace %v–%v", i, a, cur.Lo, cur.Hi)
			}
		}
	}
	collect(0)
	// A live object, read-locked across the next collection, is copied
	// right behind the volatile root object: where tmp lay before.
	pub := hp.Begin()
	y, err := pub.Alloc(1, 0, 1)
	if err == nil {
		err = pub.SetVolRoot(0, y)
	}
	if err == nil {
		err = pub.Commit()
	}
	if err != nil {
		t.Fatal(err)
	}
	reader := hp.Begin()
	if y, err = reader.VolRoot(0); err == nil {
		_, err = reader.Data(y, 0)
	}
	if err != nil {
		t.Fatal(err)
	}
	collect(1)
	hp.finishCommit(tr.t, lsn)
	reader.Abort()
}
