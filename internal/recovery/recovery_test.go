package recovery

import (
	"slices"
	"testing"

	"stableheap/internal/heap"
	"stableheap/internal/storage"
	"stableheap/internal/vm"
	"stableheap/internal/wal"
	"stableheap/internal/word"
)

const ps = 256

func newRig() (*vm.Store, *wal.Manager, *storage.Disk, *storage.Log) {
	disk := storage.NewDisk(ps)
	dev := storage.NewLog(0)
	log := wal.NewManager(dev)
	mem := vm.New(vm.Config{PageSize: ps}, disk, log)
	return mem, log, disk, dev
}

func w64(v uint64) []byte {
	b := make([]byte, 8)
	word.PutWord(b, 0, v)
	return b
}

// bootstrap formats the rig: master + initial checkpoint.
func bootstrap(mem *vm.Store, log *wal.Manager) *Checkpointer {
	InitMaster(mem.Disk())
	ck := NewCheckpointer(log, mem, word.NilLSN)
	ck.Take(wal.CheckpointRec{NextTx: 1})
	ck.ForcePromote()
	return ck
}

func TestPromoteIsLazy(t *testing.T) {
	mem, log, disk, _ := newRig()
	InitMaster(disk)
	ck := NewCheckpointer(log, mem, word.NilLSN)
	lsn := ck.Take(wal.CheckpointRec{})
	if disk.Master().CheckpointLSN == lsn {
		t.Fatal("unforced checkpoint must not reach the master block")
	}
	log.Force(lsn) // ordinary traffic forces the log…
	ck.Promote()   // …and promotion publishes it
	if disk.Master().CheckpointLSN != lsn {
		t.Fatal("promotion after force must publish the checkpoint")
	}
}

func TestForcePromote(t *testing.T) {
	mem, log, disk, _ := newRig()
	InitMaster(disk)
	ck := NewCheckpointer(log, mem, word.NilLSN)
	lsn := ck.Take(wal.CheckpointRec{})
	ck.ForcePromote()
	if disk.Master().CheckpointLSN != lsn {
		t.Fatal("ForcePromote must publish")
	}
}

func TestCheckpointIncludesDirtyPages(t *testing.T) {
	mem, log, _, _ := newRig()
	ck := bootstrap(mem, log)
	rec := log.Append(wal.GCEndRec{Epoch: 0}) // any record to stamp a page
	mem.WriteWord(0x10, 7, rec)
	lsn := ck.Take(wal.CheckpointRec{})
	ck.ForcePromote()
	cp, err := log.ReadAt(lsn)
	if err != nil {
		t.Fatal(err)
	}
	dirty := cp.(wal.CheckpointRec).Dirty
	if len(dirty) != 1 || dirty[0].Page != 0 || dirty[0].RecLSN != rec {
		t.Fatalf("dirty = %+v", dirty)
	}
}

func TestCheckpointCleanerFlushesOldPages(t *testing.T) {
	mem, log, _, _ := newRig()
	ck := bootstrap(mem, log)
	rec := log.Append(wal.GCEndRec{Epoch: 0})
	mem.WriteWord(0x10, 7, rec)
	// First checkpoint after the write: the page is younger than the
	// previous checkpoint, so it stays dirty.
	ck.Take(wal.CheckpointRec{})
	if len(mem.DirtyPages()) != 1 {
		t.Fatal("young page must not be cleaned yet")
	}
	// Second checkpoint: the page now predates the previous checkpoint
	// and is written back.
	ck.Take(wal.CheckpointRec{})
	if len(mem.DirtyPages()) != 0 {
		t.Fatal("cleaner must flush pages older than the previous checkpoint")
	}
	if ck.Met.Cleaned.Load() != 1 {
		t.Fatalf("Cleaned = %d, want 1", ck.Met.Cleaned.Load())
	}
}

func TestTruncationPointFollowsCheckpoint(t *testing.T) {
	mem, log, _, dev := newRig()
	ck := bootstrap(mem, log)
	first := ck.TruncationPoint()
	if first == word.NilLSN {
		t.Fatal("bootstrap checkpoint must give a truncation point")
	}
	// Active transaction pins the log at its first LSN.
	txFirst := log.Append(wal.UpdateRec{TxHdr: wal.TxHdr{TxID: 9}, Addr: 0x10, Redo: w64(1), Undo: w64(0)})
	lsn := ck.Take(wal.CheckpointRec{
		Txs: []wal.TxEntry{{TxID: 9, FirstLSN: txFirst, LastLSN: txFirst}},
	})
	log.Force(lsn)
	ck.Promote()
	if got := ck.TruncationPoint(); got != txFirst {
		t.Fatalf("truncation point = %d, want tx first LSN %d", got, txFirst)
	}
	ck.TruncateLog()
	if dev.TruncLSN() > txFirst {
		t.Fatal("truncation went past an active transaction's first record")
	}
}

func TestRecoverRejectsUnformattedDisk(t *testing.T) {
	mem, log, _, _ := newRig()
	if _, err := Recover(mem, log, Options{}); err == nil {
		t.Fatal("expected error for unformatted disk")
	}
}

func TestRecoverRedoConditionalOnPageLSN(t *testing.T) {
	mem, log, _, dev := newRig()
	ck := bootstrap(mem, log)
	// Committed update: page flushed (LSN on disk covers the record).
	l1 := log.Append(wal.UpdateRec{TxHdr: wal.TxHdr{TxID: 1}, Addr: 0x10, Redo: w64(7), Undo: w64(0)})
	mem.WriteWord(0x10, 7, l1)
	log.Append(wal.CommitRec{TxHdr: wal.TxHdr{TxID: 1, PrevLSN: l1}})
	mem.FlushAll()
	log.ForceAll()
	ck.Take(wal.CheckpointRec{NextTx: 2})
	ck.ForcePromote()
	dev.Crash()
	mem.Crash()
	res, err := Recover(mem, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if mem.ReadWord(0x10) != 7 {
		t.Fatal("value lost")
	}
	if len(res.Losers) != 0 {
		t.Fatal("committed transaction treated as loser")
	}
}

func TestRecoverRedoesUnflushedCommitted(t *testing.T) {
	mem, log, _, dev := newRig()
	bootstrap(mem, log)
	l1 := log.Append(wal.UpdateRec{TxHdr: wal.TxHdr{TxID: 1}, Addr: 0x10, Redo: w64(9), Undo: w64(0)})
	mem.WriteWord(0x10, 9, l1)
	c := log.Append(wal.CommitRec{TxHdr: wal.TxHdr{TxID: 1, PrevLSN: l1}})
	log.Force(c) // commit forced, page NOT flushed
	dev.Crash()
	mem.Crash()
	if mem.ReadWord(0x10) != 0 {
		t.Fatal("precondition: page content lost in crash")
	}
	res, err := Recover(mem, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if mem.ReadWord(0x10) != 9 {
		t.Fatal("repeating history must reapply the committed update")
	}
	if res.RedoApplied == 0 {
		t.Fatal("redo should have applied work")
	}
}

func TestRecoverUndoesLoserWithCLR(t *testing.T) {
	mem, log, _, dev := newRig()
	bootstrap(mem, log)
	mem.WriteWord(0x10, 1, word.NilLSN)
	l1 := log.Append(wal.UpdateRec{TxHdr: wal.TxHdr{TxID: 1}, Addr: 0x10, Redo: w64(5), Undo: w64(1)})
	mem.WriteWord(0x10, 5, l1)
	mem.FlushAll() // uncommitted value reaches disk (steal)
	dev.Crash()
	mem.Crash()
	res, err := Recover(mem, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if mem.ReadWord(0x10) != 1 {
		t.Fatalf("loser not undone: %d", mem.ReadWord(0x10))
	}
	if len(res.Losers) != 1 || res.Losers[0] != 1 {
		t.Fatalf("losers = %v", res.Losers)
	}
	// A CLR and an End record were appended.
	var clrs, ends int
	log.Scan(1, false, func(_ word.LSN, r wal.Record) bool {
		switch r.Type() {
		case wal.TCLR:
			clrs++
		case wal.TEnd:
			ends++
		}
		return true
	})
	if clrs != 1 || ends != 1 {
		t.Fatalf("clrs=%d ends=%d", clrs, ends)
	}
}

func TestRecoverTranslatesUndoThroughCopies(t *testing.T) {
	mem, log, _, dev := newRig()
	bootstrap(mem, log)
	// Loser updates slot 0x18 (inside object at 0x10, size 3 words);
	// the collector then copies the object to 0x910 before the crash.
	l1 := log.Append(wal.UpdateRec{TxHdr: wal.TxHdr{TxID: 1}, Addr: 0x18, Redo: w64(5), Undo: w64(1)})
	mem.WriteWord(0x18, 5, l1)
	cp := log.Append(wal.CopyRec{Epoch: 1, From: 0x10, To: 0x910, SizeWords: 3, Descriptor: 77})
	// Apply the copy as the collector would.
	img := mem.ReadBytes(0x10, 24)
	word.PutWord(img, 0, 77)
	mem.WriteBytes(0x910, img, cp)
	mem.FlushAll()
	dev.Crash()
	mem.Crash()
	if _, err := Recover(mem, log, Options{}); err != nil {
		t.Fatal(err)
	}
	if got := mem.ReadWord(0x918); got != 1 {
		t.Fatalf("undo not translated through the copy: word at 0x918 = %d, want 1", got)
	}
}

func TestRecoverResumesMidAbort(t *testing.T) {
	mem, log, _, dev := newRig()
	bootstrap(mem, log)
	mem.WriteWord(0x10, 1, word.NilLSN)
	mem.WriteWord(0x18, 2, word.NilLSN)
	l1 := log.Append(wal.UpdateRec{TxHdr: wal.TxHdr{TxID: 1}, Addr: 0x10, Redo: w64(5), Undo: w64(1)})
	mem.WriteWord(0x10, 5, l1)
	l2 := log.Append(wal.UpdateRec{TxHdr: wal.TxHdr{TxID: 1, PrevLSN: l1}, Addr: 0x18, Redo: w64(6), Undo: w64(2)})
	mem.WriteWord(0x18, 6, l2)
	// Abort began: the second update was already compensated. The first
	// CLR follows the last update directly — no record marks the start of
	// the rollback.
	clr := log.Append(wal.CLRRec{TxHdr: wal.TxHdr{TxID: 1, PrevLSN: l2}, Addr: 0x18, Redo: w64(2), UndoNext: l1})
	mem.WriteWord(0x18, 2, clr)
	mem.FlushAll()
	dev.Crash()
	mem.Crash()
	if _, err := Recover(mem, log, Options{}); err != nil {
		t.Fatal(err)
	}
	if mem.ReadWord(0x10) != 1 || mem.ReadWord(0x18) != 2 {
		t.Fatalf("mid-abort resume wrong: %d %d", mem.ReadWord(0x10), mem.ReadWord(0x18))
	}
	// Only ONE new CLR (for the first update): the compensated one is
	// skipped via UndoNext.
	var clrs int
	log.Scan(1, false, func(_ word.LSN, r wal.Record) bool {
		if r.Type() == wal.TCLR {
			clrs++
		}
		return true
	})
	if clrs != 2 { // the pre-crash one + one new
		t.Fatalf("clrs = %d, want 2", clrs)
	}
}

func TestAnalysisDeducesDirtySetFromEndWrite(t *testing.T) {
	mem, log, _, dev := newRig()
	ck := bootstrap(mem, log)
	// Page dirtied, then flushed (end-write logged), then NOT re-dirtied:
	// analysis must not consider it dirty.
	l1 := log.Append(wal.UpdateRec{TxHdr: wal.TxHdr{TxID: 1}, Addr: 0x10, Redo: w64(3), Undo: w64(0)})
	mem.WriteWord(0x10, 3, l1)
	log.Append(wal.CommitRec{TxHdr: wal.TxHdr{TxID: 1, PrevLSN: l1}})
	_ = ck
	mem.FlushAll() // emits the end-write record
	log.ForceAll()
	dev.Crash()
	mem.Crash()
	res, err := Recover(mem, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, dp := range res.CP.Dirty {
		if dp.Page == 0 {
			t.Fatal("flushed page must leave the dirty set via its end-write record")
		}
	}
}

// Redo writes back what it evicts, and each write back logs an end-write —
// after every record of the crashed log, some of which the page it
// certifies does not hold yet: here page 0 leaves the one-page cache after
// l1 and comes back for l3. A second crash before the post-recovery
// checkpoint must still redo l3, whether analysis sees l3 or, when the
// updates precede the checkpoint that lists page 0 as dirty, redo alone
// does.
func TestRecoverAgainAfterRedoEvicted(t *testing.T) {
	for _, cpAfter := range []bool{false, true} {
		mem, log, disk, dev := newRig()
		ck := bootstrap(mem, log)
		l1 := log.Append(wal.UpdateRec{TxHdr: wal.TxHdr{TxID: 1}, Addr: 0x10, Redo: w64(1), Undo: w64(0)})
		mem.WriteWord(0x10, 1, l1)
		l2 := log.Append(wal.UpdateRec{TxHdr: wal.TxHdr{TxID: 1, PrevLSN: l1}, Addr: ps + 0x10, Redo: w64(2), Undo: w64(0)})
		mem.WriteWord(ps+0x10, 2, l2)
		l3 := log.Append(wal.UpdateRec{TxHdr: wal.TxHdr{TxID: 1, PrevLSN: l2}, Addr: 0x18, Redo: w64(3), Undo: w64(0)})
		mem.WriteWord(0x18, 3, l3)
		log.Force(log.Append(wal.CommitRec{TxHdr: wal.TxHdr{TxID: 1, PrevLSN: l3}}))
		if cpAfter {
			ck.Take(wal.CheckpointRec{NextTx: 2})
			ck.ForcePromote()
			if d := mem.DirtyPages(); len(d) != 2 || d[0].Page != 0 || d[0].RecLSN != l1 {
				t.Fatalf("checkpoint dirty list %+v, want pages 0 (from l1) and 1", d)
			}
		}
		dev.Crash()
		mem.Crash()

		small := vm.New(vm.Config{PageSize: ps, CachePages: 1}, disk, log)
		if _, err := Recover(small, log, Options{}); err != nil {
			t.Fatal(err)
		}
		ends := 0
		log.Scan(1, false, func(_ word.LSN, r wal.Record) bool {
			if ew, ok := r.(wal.EndWriteRec); ok && ew.Page == 0 && ew.PageLSN == l1 {
				ends++
			}
			return true
		})
		if ends != 1 {
			t.Fatalf("checkpoint after updates %v: redo logged %d end-writes of page 0 at l1, want 1 (the case under test)", cpAfter, ends)
		}
		log.ForceAll() // a later force makes the end-writes stable
		dev.Crash()
		small.Crash()

		if _, err := Recover(mem, log, Options{}); err != nil {
			t.Fatal(err)
		}
		if a, b, c := mem.ReadWord(0x10), mem.ReadWord(ps+0x10), mem.ReadWord(0x18); a != 1 || b != 2 || c != 3 {
			t.Fatalf("checkpoint after updates %v: after the second recovery: %d %d %d, want 1 2 3", cpAfter, a, b, c)
		}
	}
}

func TestAnalysisReconstructsGCStateFromRecords(t *testing.T) {
	mem, log, _, dev := newRig()
	ck := bootstrap(mem, log)
	// Flip: [0x1000,0x2000) → [0x2000,0x3000); then the root's copy, one
	// full scan, a filler alloc by the system, and a sweep record.
	flip := log.Append(wal.FlipRec{Epoch: 4, FromLo: 0x1000, FromHi: 0x2000,
		ToLo: 0x2000, ToHi: 0x3000, RootObjFrom: 0x1010, RootObjTo: 0x2000})
	cp := log.Append(wal.CopyRec{Epoch: 4, From: 0x1010, To: 0x2000, SizeWords: 4, Descriptor: 9})
	img := make([]byte, 32)
	word.PutWord(img, 0, 9)
	mem.WriteBytes(0x2000, img, cp)
	sc := log.Append(wal.ScanRec{Epoch: 4, Page: 0x2000 / ps, Full: true,
		Fixes: []wal.PtrFix{{Addr: 0x2008, NewPtr: 0x2020}}})
	mem.WriteWord(0x2008, 0x2020, sc)
	fl := log.Append(wal.AllocRec{Addr: 0x2020, Descriptor: 7, SizeWords: 4}) // filler at CopyPtr
	mem.WriteWord(0x2020, 7, fl)
	sw := log.Append(wal.ScanRec{Epoch: 4, Page: 0x2000 / ps, Full: false, ScanPtr: 0x2018,
		Fixes: []wal.PtrFix{{Addr: 0x2010, NewPtr: 0x2028}}})
	mem.WriteWord(0x2010, 0x2028, sw)
	_ = ck
	log.ForceAll()
	dev.Crash()
	mem.Crash()
	res, err := Recover(mem, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := res.CP.GC
	if !g.Active || g.Epoch != 4 || g.FlipLSN != flip {
		t.Fatalf("GC state = %+v", g)
	}
	if g.CopyPtr != 0x2040 { // copy (4w) + filler (4w)
		t.Fatalf("CopyPtr = %v, want 0x2040", g.CopyPtr)
	}
	if g.AllocPtr != 0x3000 {
		t.Fatalf("AllocPtr = %v", g.AllocPtr)
	}
	if !g.Scanned[0] { // page of ToLo marked by the Full scan record
		t.Fatal("trap-scanned page not marked")
	}
	if g.ScanPtr != 0x2018 {
		t.Fatalf("ScanPtr = %v, want 0x2018", g.ScanPtr)
	}
	if res.CP.RootObj != 0x2000 {
		t.Fatalf("RootObj = %v", res.CP.RootObj)
	}
	if res.CP.StableCur != 1 { // flip toggled it from the checkpoint's 0
		t.Fatalf("StableCur = %d", res.CP.StableCur)
	}
}

// A torn tail can keep a flip and lose the root's copy record right after
// it: the root then still lives at its from-space address, and the flip's
// predicted to-space address holds nothing yet.
func TestAnalysisFlipWithoutRootCopyKeepsRoot(t *testing.T) {
	mem, log, _, dev := newRig()
	bootstrap(mem, log)
	log.Append(wal.FlipRec{Epoch: 1, FromLo: 0x1000, FromHi: 0x2000,
		ToLo: 0x2000, ToHi: 0x3000, RootObjFrom: 0x1010, RootObjTo: 0x2000})
	log.ForceAll()
	dev.Crash()
	mem.Crash()
	res, err := Recover(mem, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g := res.CP.GC; !g.Active || g.CopyPtr != 0x2000 || res.CP.RootObj != 0x1010 {
		t.Fatalf("RootObj = %v, CopyPtr = %v: want the from-space root and nothing copied", res.CP.RootObj, g.CopyPtr)
	}
}

// TestAnalysisMoveRuns: a base run enters each of its objects in LS, and
// the move cycle's record takes them out, advances the stable frontier past
// its runs, replays its images and fixes, and enters in the remembered set
// the moved slots and fixed slots that still name the volatile area. A
// later base run over a source enters LS again, and the flip record clears
// LS.
func TestAnalysisMoveRuns(t *testing.T) {
	const vlo, vhi = word.Addr(0x4000), word.Addr(0x8000)
	// a (one pointer) and b (one data word) lie end to end at 0x4000; the
	// cycle moves b to 0x800 and a after it, to 0x810 — two runs — and
	// fixes the stable slot 0x828, on their page, to name a.
	obj := func(ptr word.Addr) []byte {
		img := make([]byte, 32)
		word.PutWord(img, 0, uint64(heap.NewDescriptor(1, 1, 0)))
		word.PutWord(img, 8, uint64(ptr))
		word.PutWord(img, 16, uint64(heap.NewDescriptor(1, 0, 1)))
		word.PutWord(img, 24, 42)
		return img
	}
	for _, tc := range []struct {
		name     string
		aPtr     word.Addr // a's translated slot
		after    []wal.Record
		ls, srem []word.Addr
	}{
		{"fix replayed", 0x800, nil, nil, nil},
		{"slot still volatile", 0x6000, nil, nil, []word.Addr{0x818}},
		{"source reused", 0x800, []wal.Record{wal.BaseRec{TxHdr: wal.TxHdr{TxID: 4}, Addr: 0x4008, Object: obj(0)[16:]}},
			[]word.Addr{0x4008}, nil},
		{"flip replayed", 0x800, []wal.Record{wal.VFlipRec{Epoch: 1, Moved: 2}}, nil, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem, log, _, dev := newRig()
			InitMaster(mem.Disk())
			ck := NewCheckpointer(log, mem, word.NilLSN)
			ck.Take(wal.CheckpointRec{NextTx: 1, VolatileLo: vlo, VolatileHi: vhi, SRem: []word.Addr{0x828}})
			ck.ForcePromote()
			base := log.Append(wal.BaseRec{TxHdr: wal.TxHdr{TxID: 3}, Addr: 0x4000, Object: obj(0x4010)})
			log.Append(wal.CommitRec{TxHdr: wal.TxHdr{TxID: 3, PrevLSN: base}})
			img := obj(tc.aPtr)
			log.Append(wal.V2SCopyRec{From: []word.Addr{0x4010, 0x4000}, Runs: []wal.MoveRun{{To: 0x800, Bytes: 16}, {To: 0x810, Bytes: 16}},
				Object: append(img[16:], img[:16]...), Fixes: []wal.PtrFix{{Addr: 0x828, NewPtr: 0x810}}})
			for _, r := range tc.after {
				log.Append(r)
			}
			log.ForceAll()
			dev.Crash()
			mem.Crash()
			res, err := Recover(mem, log, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(res.CP.LS, tc.ls) || !slices.Equal(res.CP.SRem, tc.srem) {
				t.Fatalf("LS %v, SRem %v; want %v, %v", res.CP.LS, res.CP.SRem, tc.ls, tc.srem)
			}
			if res.CP.StableAlloc != 0x820 {
				t.Fatalf("StableAlloc = %v, want the last run's end 0x820", res.CP.StableAlloc)
			}
			// Both runs and the fix share page 8 (256-byte pages): each
			// must land although the one before stamped the page with the
			// record's LSN.
			if b, a, fix := mem.ReadWord(0x808), mem.ReadWord(0x818), mem.ReadWord(0x828); b != 42 || a != uint64(tc.aPtr) || fix != 0x810 {
				t.Fatalf("replayed b=%d, a's slot %#x, fixed slot %#x; want 42, %#x, 0x810", b, a, fix, uint64(tc.aPtr))
			}
		})
	}
}

func TestAnalysisV2SCopyAdvancesStableAllocAndClearsLS(t *testing.T) {
	mem, log, _, dev := newRig()
	bootstrap(mem, log)
	base := log.Append(wal.BaseRec{TxHdr: wal.TxHdr{TxID: 3}, Addr: 0x5000,
		Object: []byte{1, 0, 0, 0, 0, 0, 0, 0}})
	mem.WriteBytes(0x5000, []byte{1, 0, 0, 0, 0, 0, 0, 0}, base)
	log.Append(wal.CommitRec{TxHdr: wal.TxHdr{TxID: 3, PrevLSN: base}})
	mv := log.Append(wal.V2SCopyRec{From: []word.Addr{0x5000}, Runs: []wal.MoveRun{{To: 0x800, Bytes: 8}}, Object: []byte{1, 0, 0, 0, 0, 0, 0, 0}})
	mem.WriteBytes(0x800, []byte{1, 0, 0, 0, 0, 0, 0, 0}, mv)
	log.ForceAll()
	dev.Crash()
	mem.Crash()
	res, err := Recover(mem, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CP.LS) != 0 {
		t.Fatalf("LS must be cleared by the move: %v", res.CP.LS)
	}
	if res.CP.StableAlloc < 0x808 {
		t.Fatalf("StableAlloc = %v, want ≥ 0x808", res.CP.StableAlloc)
	}
	if mem.ReadWord(0x800) != 1 {
		t.Fatal("moved object not replayed")
	}
}

func TestAnalysisSFixMaintainsSRem(t *testing.T) {
	mem, log, _, dev := newRig()
	ck := bootstrap(mem, log)
	_ = ck
	// A flagged pointer store into a stable slot adds it to SRem…
	u := log.Append(wal.UpdateRec{TxHdr: wal.TxHdr{TxID: 2}, Addr: 0x700,
		Flags: wal.UFPtrSlot | wal.UFPtrToVolatile, Redo: w64(0x9000), Undo: w64(0)})
	mem.WriteWord(0x700, 0x9000, u)
	log.Append(wal.CommitRec{TxHdr: wal.TxHdr{TxID: 2, PrevLSN: u}})
	// …and an SFix pointing it at a stable target removes it.
	sf := log.Append(wal.SFixRec{Page: 0x700 / ps, Fixes: []wal.PtrFix{{Addr: 0x700, NewPtr: 0x600}}})
	mem.WriteWord(0x700, 0x600, sf)
	log.ForceAll()
	dev.Crash()
	mem.Crash()
	res, err := Recover(mem, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CP.SRem) != 0 {
		t.Fatalf("SRem = %v, want empty after the fix", res.CP.SRem)
	}
	if mem.ReadWord(0x700) != 0x600 {
		t.Fatal("fix not replayed")
	}
}

// InitMaster marks a fresh disk's master formatted with no checkpoint yet:
// the state these tests start recovery from by hand. (core.Open marks the
// master formatted only when it promotes the first checkpoint.)
func InitMaster(disk *storage.Disk) {
	m := disk.Master()
	m.Formatted = true
	disk.SetMaster(m)
}
