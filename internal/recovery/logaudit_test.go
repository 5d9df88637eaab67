package recovery_test

import (
	"math/rand"
	"strings"
	"testing"

	"stableheap"
	"stableheap/internal/recovery"
	"stableheap/internal/wal"
	"stableheap/internal/word"
	"stableheap/internal/workload"
)

// samples holds one record of every live type a heap's log carries, each
// with what reads it; recovery.ReadBy checks the claim. The 2PC types live
// in the coordinator's own log, and shard's
// TestCoordinatorReadsEveryRecordType checks them.
var samples = []wal.Record{
	wal.UpdateRec{TxHdr: wal.TxHdr{TxID: 5}, Addr: 0x10, Redo: make([]byte, 8), Undo: make([]byte, 8)}, // redo; undo restores the before-image
	wal.CLRRec{TxHdr: wal.TxHdr{TxID: 5}, Addr: 0x10, Redo: make([]byte, 8)},                           // redo; undo resumes at UndoNext
	wal.AllocRec{TxHdr: wal.TxHdr{TxID: 5}, Addr: 0x10, SizeWords: 2},                                  // redo; analysis advances the frontier
	wal.CommitRec{TxHdr: wal.TxHdr{TxID: 5}},                                                           // analysis: a winner
	wal.EndRec{TxHdr: wal.TxHdr{TxID: 5}},                                                              // analysis drops the transaction
	wal.FlipRec{Epoch: 1, FromLo: 0x1000, FromHi: 0x2000, ToLo: 0x2000, ToHi: 0x3000},                  // analysis: collector state
	wal.CopyRec{Epoch: 1, From: 0x10, To: 0x810, SizeWords: 2},                                         // redo; undo's address translation
	wal.ScanRec{Epoch: 1, Page: 0, Fixes: []wal.PtrFix{{Addr: 0x10, NewPtr: 0x810}}},                   // redo; analysis advances the scan
	wal.GCEndRec{Epoch: 1}, // analysis ends the collection
	wal.BaseRec{TxHdr: wal.TxHdr{TxID: 5}, Addr: 0x10, Object: make([]byte, 16)},                                   // redo; analysis: the LS set
	wal.V2SCopyRec{From: []word.Addr{0x10}, Runs: []wal.MoveRun{{To: 0x810, Bytes: 16}}, Object: make([]byte, 16)}, // redo; undo's address translation
	wal.SFixRec{Page: 0, Fixes: []wal.PtrFix{{Addr: 0x10, NewPtr: 0x810}}},                                         // redo; analysis: the remembered set
	wal.VFlipRec{Epoch: 1},                                          // analysis flips the volatile semispaces
	wal.EndWriteRec{Page: 0, PageLSN: 1},                            // analysis prunes the dirty page table
	wal.CheckpointRec{NextTx: 7},                                    // restart starts from the one the master names
	wal.LogicalRec{TxHdr: wal.TxHdr{TxID: 5}, Addr: 0x10, Delta: 1}, // redo adds the delta; undo subtracts it
	wal.PrepareRec{TxHdr: wal.TxHdr{TxID: 5}},                       // analysis keeps the transaction in doubt
}

// TestLogAuditEveryTypeIsRead holds every live record type to a reader:
// ReadBy must find one for each sample. It then runs the bank and OO7
// mixes — with an abort after a logged update each round, collections and
// checkpoints — and fails on any type they append that has no sample or no
// reader, and on an END that follows a commit record.
func TestLogAuditEveryTypeIsRead(t *testing.T) {
	reader := make(map[wal.Type]string)
	for _, rec := range samples {
		by := recovery.ReadBy(rec)
		if by == "" {
			t.Errorf("%v: no part of recovery reads it", rec.Type())
		}
		reader[rec.Type()] = by
	}
	for typ := wal.TInvalid + 1; !strings.HasPrefix(typ.String(), "type("); typ++ {
		switch {
		case typ.Retired(), typ == wal.TTwoPCBegin, typ == wal.TTwoPCDecide, typ == wal.TTwoPCEnd:
			continue // retired, or the coordinator's
		}
		if _, ok := reader[typ]; !ok {
			t.Errorf("record type %v has no sample: add one and say what reads it", typ)
		}
	}

	h := stableheap.Open(stableheap.DefaultConfig())
	defer h.Close()
	rng := rand.New(rand.NewSource(41))
	bank, err := workload.NewBank(h, 1, 256, 16, 1000)
	if err != nil {
		t.Fatal(err)
	}
	o, err := workload.BuildOO7(h, 0, workload.DefaultOO7(), rng)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		if _, err := bank.RunMix(rng, 300, 1500); err != nil { // some overdraw, and log nothing
			t.Fatal(err)
		}
		tx := h.Begin()
		module, err := tx.Root(0)
		if err == nil {
			err = tx.SetData(module, 0, uint64(round))
		}
		if err != nil {
			t.Fatal(err)
		}
		tx.Abort()
		for i := 0; i < 20; i++ {
			switch i % 4 {
			case 0:
				err = o.ReplaceComposite(rng)
			case 1, 2:
				err = o.UpdateT2(rng)
			default:
				_, err = o.TraverseT1()
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if _, err := h.CollectVolatile(); err != nil {
			t.Fatal(err)
		}
		h.CollectStable()
		h.Checkpoint()
	}
	// The commit record is a committed transaction's last: an END closes
	// only a rollback (each round's abort leaves one).
	committed, ends := make(map[word.TxID]bool), 0
	h.Log().Scan(max(h.Log().Device().TruncLSN(), 1), false, func(_ word.LSN, r wal.Record) bool {
		switch r.(type) {
		case wal.CommitRec:
			committed[r.Tx()] = true
		case wal.EndRec:
			ends++
			if committed[r.Tx()] {
				t.Errorf("an END follows transaction %d's commit record", r.Tx())
			}
		}
		return true
	})
	if ends == 0 {
		t.Error("the mixes' aborts left no END record")
	}
	got := make(map[wal.Type]int64)
	for typ := wal.TInvalid + 1; !strings.HasPrefix(typ.String(), "type("); typ++ {
		if n, _ := h.Log().TypeStats(typ); n > 0 {
			got[typ] = n
		}
	}
	for _, typ := range []wal.Type{wal.TUpdate, wal.TLogical, wal.TCLR, wal.TCopy, wal.TV2SCopy, wal.TEndWrite} {
		if got[typ] == 0 {
			t.Errorf("the mixes appended no %v record: the audit covers less than it claims", typ)
		}
	}
	for typ, n := range got {
		by, ok := reader[typ]
		switch {
		case !ok:
			t.Errorf("%d %v records appended, a type with no sample", n, typ)
		case by == "":
			t.Errorf("%d %v records appended that no reader uses", n, typ)
		}
	}
	t.Logf("appended: %v", got)
}
