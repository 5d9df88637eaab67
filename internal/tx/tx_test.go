package tx

import (
	"bytes"
	"testing"

	"stableheap/internal/heap"
	"stableheap/internal/lock"
	"stableheap/internal/storage"
	"stableheap/internal/vm"
	"stableheap/internal/wal"
	"stableheap/internal/word"
)

const ps = 256

type fixture struct {
	log   *wal.Manager
	mem   *vm.Store
	h     *heap.Heap
	locks *lock.Manager
	m     *Manager
}

func newFixture() *fixture {
	disk := storage.NewDisk(ps)
	log := wal.NewManager(storage.NewLog(0))
	mem := vm.New(vm.Config{PageSize: ps}, disk, log)
	h := heap.New(mem)
	locks := lock.NewManager(0)
	return &fixture{log: log, mem: mem, h: h, locks: locks, m: NewManager(log, mem, h, locks, Env{})}
}

// commit is the protocol every committer follows: commit record, force,
// release.
func (f *fixture) commit(t *Tx) {
	f.log.Force(f.m.PrepareCommit(t))
	f.m.FinishCommit(t)
}

// move hands the manager a one-object relocation batch (a read-barrier
// transport, or a whole cycle that moved one object).
func (f *fixture) move(from, to word.Addr, words int) {
	f.m.Relocate(word.Moves{{From: from, To: to, Words: words}})
}

func w64(v uint64) []byte {
	b := make([]byte, 8)
	word.PutWord(b, 0, v)
	return b
}

// TestBeginAssignsIDsAndLogs: Begin assigns distinct ids and logs nothing —
// a transaction's chain starts at its first logged change — and one that
// logs nothing appends no commit, abort or end record and stays out of the
// checkpoint's table, so it pins no log.
func TestBeginAssignsIDsAndLogs(t *testing.T) {
	f := newFixture()
	t1 := f.m.Begin()
	t2 := f.m.Begin()
	if t1.ID() == t2.ID() {
		t.Fatal("ids must differ")
	}
	if f.m.ActiveCount() != 2 {
		t.Fatal("both must be active")
	}
	if got := f.m.TableEntries(); len(got) != 0 {
		t.Fatalf("checkpoint table = %+v, want no transaction that logged nothing", got)
	}
	if lsn := f.m.PrepareCommit(t1); lsn != word.NilLSN {
		t.Fatalf("read-only PrepareCommit returned LSN %d, want NilLSN", lsn)
	}
	f.m.FinishCommit(t1)
	f.m.Abort(t2)
	if end := f.log.EndLSN(); end != 1 {
		t.Fatalf("log end = %d after two read-only transactions, want nothing appended", end)
	}
	if f.m.ActiveCount() != 0 {
		t.Fatal("both must have left the table")
	}
}

func TestUpdateWritesAndLogsRedoUndo(t *testing.T) {
	f := newFixture()
	f.mem.WriteWord(0x100, 11, word.NilLSN)
	tr := f.m.Begin()
	f.m.Update(tr, 0x100, 0x100, w64(22), false)
	if f.mem.ReadWord(0x100) != 22 {
		t.Fatal("update not applied")
	}
	var u wal.UpdateRec
	f.log.Scan(1, false, func(_ word.LSN, r wal.Record) bool {
		if r.Type() == wal.TUpdate {
			u = r.(wal.UpdateRec)
		}
		return true
	})
	if u.Addr != 0x100 || !bytes.Equal(u.Redo, w64(22)) || !bytes.Equal(u.Undo, w64(11)) {
		t.Fatalf("update record = %+v", u)
	}
	// The page LSN advanced to the record's LSN.
	if f.mem.PageLSN(0x100/ps) == word.NilLSN {
		t.Fatal("page LSN must advance")
	}
}

// TestCommitShapeCountsOverlap: the commit shape counts the update
// transactions a committed one was open together with. Two whose updates
// and commits interleave were; a read-only one never counts; and one that
// logs its first update after another's commit record is stable does not
// overlap it, even though that other has not yet run FinishCommit — the
// late waker of a shared force.
func TestCommitShapeCountsOverlap(t *testing.T) {
	shape := func(f *fixture, want int) {
		t.Helper()
		if got, _ := f.m.CommitShape(); got != want {
			t.Fatalf("commit shape says %d usually open, want %d", got, want)
		}
	}
	f := newFixture()
	reader := f.m.Begin()
	a, b := f.m.Begin(), f.m.Begin()
	f.m.Update(a, 0x100, 0x100, w64(1), false)
	f.m.Update(b, 0x108, 0x108, w64(2), false)
	f.commit(a)
	shape(f, 2)
	f.commit(b)
	f.commit(reader)
	shape(f, 2)

	g := newFixture()
	c := g.m.Begin()
	g.m.Update(c, 0x100, 0x100, w64(3), false)
	g.log.Force(g.m.PrepareCommit(c)) // c's force has ended; c has not finished
	d := g.m.Begin()
	g.m.Update(d, 0x108, 0x108, w64(4), false)
	g.m.FinishCommit(c)
	shape(g, 1)
	g.commit(d)
	shape(g, 1)
}

func TestCommitForcesLog(t *testing.T) {
	f := newFixture()
	tr := f.m.Begin()
	f.m.Update(tr, 0x100, 0x100, w64(1), false)
	if f.log.StableLSN() != 1 {
		t.Fatal("nothing should be forced yet")
	}
	f.commit(tr)
	// Everything through the commit record must be stable, and the commit
	// record is the last one the transaction appends.
	var commitLSN, last word.LSN
	f.log.Scan(1, false, func(lsn word.LSN, r wal.Record) bool {
		if r.Type() == wal.TCommit {
			commitLSN = lsn
		}
		last = lsn
		return true
	})
	if !f.log.IsStable(commitLSN) {
		t.Fatal("commit record must be durable")
	}
	if last != commitLSN {
		t.Fatalf("last record at %d, commit record at %d: a commit appends nothing after it", last, commitLSN)
	}
	if tr.Status() != Committed {
		t.Fatal("status")
	}
	if f.m.ActiveCount() != 0 {
		t.Fatal("committed tx must leave the table")
	}
}

func TestAbortRestoresValuesWithCLRs(t *testing.T) {
	f := newFixture()
	f.mem.WriteWord(0x100, 1, word.NilLSN)
	f.mem.WriteWord(0x108, 2, word.NilLSN)
	tr := f.m.Begin()
	f.m.Update(tr, 0x100, 0x100, w64(10), false)
	f.m.Update(tr, 0x108, 0x108, w64(20), false)
	f.m.Update(tr, 0x100, 0x100, w64(100), false) // second update of the same word
	lastUpdate := tr.lastLSN
	f.m.Abort(tr)
	if got := f.mem.ReadWord(0x100); got != 1 {
		t.Fatalf("0x100 = %d, want 1", got)
	}
	if got := f.mem.ReadWord(0x108); got != 2 {
		t.Fatalf("0x108 = %d, want 2", got)
	}
	var clrs int
	var first wal.CLRRec
	var sawEnd bool
	f.log.Scan(1, false, func(_ word.LSN, r wal.Record) bool {
		switch r := r.(type) {
		case wal.CLRRec:
			if clrs == 0 {
				first = r
			}
			clrs++
		case wal.EndRec:
			sawEnd = true
		}
		return true
	})
	if clrs != 3 || !sawEnd {
		t.Fatalf("clrs=%d end=%v", clrs, sawEnd)
	}
	// A rollback is its CLRs: no abort record, and the first CLR chains
	// directly after the last update.
	if n, _ := f.log.TypeStats(wal.TAbort); n != 0 {
		t.Fatalf("%d abort records appended", n)
	}
	if first.PrevLSN != lastUpdate {
		t.Fatalf("first CLR's PrevLSN = %d, want the last update's %d", first.PrevLSN, lastUpdate)
	}
	if tr.Status() != Aborted {
		t.Fatal("status")
	}
}

func TestCLRUndoNextSkipsCompensatedWork(t *testing.T) {
	f := newFixture()
	tr := f.m.Begin()
	f.m.Update(tr, 0x100, 0x100, w64(1), false)
	u2 := tr.lastLSN
	f.m.Update(tr, 0x108, 0x108, w64(2), false)
	f.m.Abort(tr)
	// The first CLR (for the later update) must point its UndoNext at
	// the earlier update.
	var first wal.CLRRec
	f.log.Scan(1, false, func(_ word.LSN, r wal.Record) bool {
		if c, ok := r.(wal.CLRRec); ok {
			first = c
			return false
		}
		return true
	})
	if first.UndoNext != u2 {
		t.Fatalf("UndoNext = %d, want %d", first.UndoNext, u2)
	}
}

func TestVolatileWriteUnloggedButUndone(t *testing.T) {
	f := newFixture()
	f.mem.WriteWord(0x200, 5, word.NilLSN)
	tr := f.m.Begin()
	before := f.log.EndLSN()
	f.m.VolatileWrite(tr, 0x200, 50, false, false)
	if f.log.EndLSN() != before {
		t.Fatal("volatile writes must not log")
	}
	if f.mem.ReadWord(0x200) != 50 {
		t.Fatal("write not applied")
	}
	f.m.Abort(tr)
	if f.mem.ReadWord(0x200) != 5 {
		t.Fatal("volatile write must be undone on abort")
	}
}

func TestVolatileUndoAppliedInReverseOrder(t *testing.T) {
	f := newFixture()
	tr := f.m.Begin()
	f.m.VolatileWrite(tr, 0x200, 1, false, false)
	f.m.VolatileWrite(tr, 0x200, 2, false, false)
	f.m.VolatileWrite(tr, 0x200, 3, false, false)
	f.m.Abort(tr)
	if got := f.mem.ReadWord(0x200); got != 0 {
		t.Fatalf("reverse undo broken: got %d, want 0", got)
	}
}

func TestCommitReleasesLocks(t *testing.T) {
	f := newFixture()
	tr := f.m.Begin()
	if err := f.locks.Acquire(tr.ID(), 0x100, lock.Write); err != nil {
		t.Fatal(err)
	}
	f.commit(tr)
	other := f.m.Begin()
	if err := f.locks.Acquire(other.ID(), 0x100, lock.Write); err != nil {
		t.Fatal("lock must be free after commit:", err)
	}
}

func TestOnCopyTranslatesUndoAddresses(t *testing.T) {
	f := newFixture()
	f.mem.WriteWord(0x100, 7, word.NilLSN)
	tr := f.m.Begin()
	f.m.Update(tr, 0x108, 0x108, w64(9), false) // slot at offset 8 of object at 0x100
	// The collector moves the object [0x100, 0x120) to 0x900, then chains
	// a second move within the same or a later collection.
	f.move(0x100, 0x900, 4)
	f.move(0x900, 0x500, 4)
	// Abort writes the undo at the current location.
	f.mem.WriteWord(0x508, 9, word.NilLSN)
	f.m.Abort(tr)
	if f.mem.ReadWord(0x508) != 0 {
		t.Fatal("undo must target the translated address")
	}
}

// TestUndoAddressReuseDoesNotAlias pins the from-space-reuse hazard: one
// transaction updates an object at an address, the collector moves the
// object away, the allocator reuses the address for a different object,
// and the same transaction updates the new object at the same (logged)
// address. Each record's undo must land on its own object — an
// address-keyed translation map sends the second record's undo to the
// first object's new location, corrupting both.
func TestUndoAddressReuseDoesNotAlias(t *testing.T) {
	f := newFixture()
	f.mem.WriteWord(0x108, 1, word.NilLSN)
	tr := f.m.Begin()
	f.m.Update(tr, 0x100, 0x108, w64(11), false) // object X, slot 0x108
	// X moves to [0x900, 0x920); the old range is reused by object Y.
	f.move(0x100, 0x900, 4)
	f.mem.WriteWord(0x908, 11, word.NilLSN)      // the collector carried X's bytes
	f.mem.WriteWord(0x108, 2, word.NilLSN)       // Y's slot, pre-update value
	f.m.Update(tr, 0x100, 0x108, w64(22), false) // same logged address, different object
	f.m.Abort(tr)
	if got := f.mem.ReadWord(0x908); got != 1 {
		t.Fatalf("X's slot after undo = %d at 0x908, want 1", got)
	}
	if got := f.mem.ReadWord(0x108); got != 2 {
		t.Fatalf("Y's slot after undo = %d at 0x108, want 2 (undo aliased to X's location)", got)
	}
}

func TestOnCopyRebasesVolatileUndo(t *testing.T) {
	f := newFixture()
	f.mem.WriteWord(0x200, 5, word.NilLSN)
	tr := f.m.Begin()
	f.m.VolatileWrite(tr, 0x200, 50, false, false)
	// Volatile collector moves the object [0x1f8, 0x218) to 0x600.
	f.move(0x1f8, 0x600, 4)
	f.m.Abort(tr)
	if got := f.mem.ReadWord(0x608); got != 5 {
		t.Fatalf("volatile undo after move: got %d at 0x608, want 5", got)
	}
}

func TestHandlesVisitedAndRewritten(t *testing.T) {
	f := newFixture()
	tr := f.m.Begin()
	h := f.m.Register(tr, 0x100)
	f.m.ForEachHandle(func(get func() word.Addr, set func(word.Addr)) {
		if get() == 0x100 {
			set(0x900)
		}
	})
	if h.Addr() != 0x900 {
		t.Fatal("handle must be rewritten by the visitor")
	}
	f.commit(tr)
	n := 0
	f.m.ForEachHandle(func(func() word.Addr, func(word.Addr)) { n++ })
	if n != 0 {
		t.Fatal("handles die with their transaction")
	}
}

// TestBaseRecordsThenCommit: a tracking batch is its base records, and the
// transaction's commit record, chained directly after the last of them,
// closes it (the paper's base-update-complete marker).
func TestBaseRecordsThenCommit(t *testing.T) {
	f := newFixture()
	tr := f.m.Begin()
	img := make([]byte, 16)
	word.PutWord(img, 0, uint64(heap.NewDescriptor(1, 0, 1)))
	word.PutWord(img, 8, 42)
	baseLSN := f.m.LogBase(tr, 0x300, img)
	f.commit(tr)
	var got []wal.Record
	f.log.Scan(1, false, func(_ word.LSN, r wal.Record) bool {
		got = append(got, r)
		return true
	})
	if len(got) != 2 {
		t.Fatalf("log holds %d records, want the base record and the commit record: %+v", len(got), got)
	}
	if base, ok := got[0].(wal.BaseRec); !ok || base.Addr != 0x300 || !bytes.Equal(base.Object, img) {
		t.Fatalf("first record = %+v, want the base record", got[0])
	}
	if c, ok := got[1].(wal.CommitRec); !ok || c.PrevLSN != baseLSN {
		t.Fatalf("second record = %+v, want the commit record chained after the base record at %d", got[1], baseLSN)
	}
}

func TestAllocRecordChained(t *testing.T) {
	f := newFixture()
	tr := f.m.Begin()
	d := heap.NewDescriptor(2, 1, 1)
	f.m.LogAlloc(tr, 0x400, d)
	f.m.Update(tr, 0x408, 0x408, w64(1), false)
	f.m.Abort(tr) // must walk over the alloc record without undoing it
	var allocs int
	f.log.Scan(1, false, func(_ word.LSN, r wal.Record) bool {
		if r.Type() == wal.TAlloc {
			allocs++
		}
		return true
	})
	if allocs != 1 {
		t.Fatal("alloc record missing")
	}
}

func TestTableEntriesCarryUTT(t *testing.T) {
	f := newFixture()
	tr := f.m.Begin()
	f.m.Update(tr, 0x100, 0x100, w64(1), false)
	f.move(0x100, 0x800, 2)
	entries := f.m.TableEntries()
	if len(entries) != 1 || entries[0].TxID != tr.ID() {
		t.Fatalf("entries = %+v", entries)
	}
	if len(entries[0].UTT) != 1 {
		t.Fatalf("UTT = %+v", entries[0].UTT)
	}
	if p := entries[0].UTT[0]; p.Orig != 0x100 || p.Cur != 0x800 || p.At == word.NilLSN {
		t.Fatalf("UTT pair = %+v, want Orig 0x100 Cur 0x800 with a record LSN", p)
	}
	if entries[0].FirstLSN == word.NilLSN || entries[0].LastLSN < entries[0].FirstLSN {
		t.Fatal("LSN bounds wrong")
	}
}

func TestAbortAllAndCrash(t *testing.T) {
	f := newFixture()
	f.mem.WriteWord(0x100, 1, word.NilLSN)
	t1 := f.m.Begin()
	f.m.Update(t1, 0x100, 0x100, w64(9), false)
	f.m.Begin()
	f.m.AbortAll()
	if f.m.ActiveCount() != 0 {
		t.Fatal("AbortAll must clear the table")
	}
	if f.mem.ReadWord(0x100) != 1 {
		t.Fatal("AbortAll must undo updates")
	}
	t3 := f.m.Begin()
	_ = t3
	f.m.Crash()
	if f.m.ActiveCount() != 0 {
		t.Fatal("Crash must clear the table")
	}
}

func TestNextTxIDSurvivesRestore(t *testing.T) {
	f := newFixture()
	f.m.Begin()
	f.m.Begin()
	next := f.m.NextTxID()
	f2 := newFixture()
	f2.m.SetNextTxID(next)
	tr := f2.m.Begin()
	if tr.ID() != next {
		t.Fatalf("restored id = %d, want %d", tr.ID(), next)
	}
}

func TestOperationsOnFinishedTxPanic(t *testing.T) {
	f := newFixture()
	tr := f.m.Begin()
	f.commit(tr)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.m.Update(tr, 0x100, 0x100, w64(1), false)
}

func TestUpdateLogicalRedoUndo(t *testing.T) {
	f := newFixture()
	f.mem.WriteWord(0x100, 10, word.NilLSN)
	tr := f.m.Begin()
	f.m.UpdateLogical(tr, 0x100, 0x100, 5)
	f.m.UpdateLogical(tr, 0x100, 0x100, ^uint64(2)) // -3 wrapping
	if got := f.mem.ReadWord(0x100); got != 12 {
		t.Fatalf("value = %d, want 12", got)
	}
	f.m.Abort(tr)
	if got := f.mem.ReadWord(0x100); got != 10 {
		t.Fatalf("after abort = %d, want 10", got)
	}
	// The log contains logical records and logical CLRs.
	var logical, clrs int
	f.log.Scan(1, false, func(_ word.LSN, r wal.Record) bool {
		switch rec := r.(type) {
		case wal.LogicalRec:
			logical++
		case wal.CLRRec:
			if rec.Flags&wal.CLRLogicalDelta == 0 {
				t.Fatal("logical undo must emit logical CLRs")
			}
			clrs++
		}
		return true
	})
	if logical != 2 || clrs != 2 {
		t.Fatalf("logical=%d clrs=%d", logical, clrs)
	}
}

func TestUpdateLogicalTranslatedAfterMove(t *testing.T) {
	f := newFixture()
	f.mem.WriteWord(0x108, 100, word.NilLSN)
	tr := f.m.Begin()
	f.m.UpdateLogical(tr, 0x108, 0x108, 11)
	// The collector moves the containing object [0x100, 0x120) → 0x900.
	f.mem.WriteWord(0x908, 111, word.NilLSN)
	f.move(0x100, 0x900, 4)
	f.m.Abort(tr)
	if got := f.mem.ReadWord(0x908); got != 100 {
		t.Fatalf("translated logical undo: %d, want 100", got)
	}
}

func TestForEachUndoRootVisitsPointerValues(t *testing.T) {
	f := newFixture()
	// A pointer slot holding 0x500 is overwritten: 0x500 lives on only
	// in undo information and must be visible as a root.
	f.mem.WriteWord(0x100, 0x500, word.NilLSN)
	tr := f.m.Begin()
	f.m.Update(tr, 0x100, 0x100, w64(0x600), true)
	var got []word.Addr
	f.m.ForEachUndoRoot(func(get func() word.Addr, set func(word.Addr)) {
		got = append(got, get())
		set(0x777) // the collector moved it
	})
	if len(got) != 1 || got[0] != 0x500 {
		t.Fatalf("undo roots = %v", got)
	}
	// Abort must restore the translated value.
	f.m.Abort(tr)
	if f.mem.ReadWord(0x100) != 0x777 {
		t.Fatalf("restored %#x, want 0x777", f.mem.ReadWord(0x100))
	}
}

func TestForEachUndoRootVolatilePtr(t *testing.T) {
	f := newFixture()
	f.mem.WriteWord(0x200, 0x500, word.NilLSN)
	tr := f.m.Begin()
	f.m.VolatileWrite(tr, 0x200, 0x600, true, false)
	var got []word.Addr
	f.m.ForEachUndoRoot(func(get func() word.Addr, set func(word.Addr)) {
		got = append(got, get())
		set(0x888)
	})
	if len(got) != 1 || got[0] != 0x500 {
		t.Fatalf("volatile undo roots = %v", got)
	}
	f.m.Abort(tr)
	if f.mem.ReadWord(0x200) != 0x888 {
		t.Fatal("volatile undo must restore the rewritten pointer")
	}
}

func TestPrepareFinishCommitSplit(t *testing.T) {
	f := newFixture()
	tr := f.m.Begin()
	f.m.Update(tr, 0x100, 0x100, w64(1), false)
	lsn := f.m.PrepareCommit(tr)
	if f.log.IsStable(lsn) {
		t.Fatal("prepare must not force")
	}
	if tr.Status() != Active {
		t.Fatal("tx still active between prepare and finish")
	}
	// The commit record decides the transaction: no checkpoint lists it,
	// though it stays in the table, holding its locks, until it finishes.
	if got := f.m.TableEntries(); len(got) != 0 {
		t.Fatalf("checkpoint table lists the committing tx: %+v", got)
	}
	f.log.Force(lsn) // stand-in for the group force
	end := f.log.EndLSN()
	f.m.FinishCommit(tr)
	if tr.Status() != Committed || f.m.ActiveCount() != 0 {
		t.Fatal("finish must complete the commit")
	}
	if got := f.log.EndLSN(); got != end {
		t.Fatalf("log end moved from %d to %d: FinishCommit must append nothing", end, got)
	}
}

// Only a live transaction of this manager may act: one another manager
// began, one that has finished and one a crash dropped from the table all
// panic on their next action.
func TestActionsRejectForeignFinishedAndCrashed(t *testing.T) {
	f, other := newFixture(), newFixture()
	foreign := other.m.Begin()
	finished := f.m.Begin()
	f.commit(finished)
	crashed := f.m.Begin()
	f.m.Crash()
	for name, tr := range map[string]*Tx{"foreign": foreign, "finished": finished, "crashed": crashed} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s transaction: Prepare did not panic", name)
				}
			}()
			f.m.Prepare(tr)
		}()
	}
	live := f.m.Begin()
	f.m.Prepare(live)
}
