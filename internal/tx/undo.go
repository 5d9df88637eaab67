package tx

import (
	"fmt"

	"stableheap/internal/vm"
	"stableheap/internal/wal"
	"stableheap/internal/word"
)

// walkChain visits transaction id's log chain newest first, from the record
// at from back to its first. It holds the one backward step that run-time
// abort, recovery's rollback of losers and the in-doubt restore all take:
// a CLR steps to its UndoNext, so the work a rollback already compensated
// is passed over — a rollback is its CLRs, and there is no other record of
// how far it got — and any other chained record steps to its PrevLSN. A
// record outside a transaction chain panics.
func walkChain(log *wal.Manager, id word.TxID, from word.LSN, visit func(lsn word.LSN, rec wal.Record)) {
	for lsn := from; lsn != word.NilLSN; {
		rec := log.MustReadAt(lsn)
		visit(lsn, rec)
		switch r := rec.(type) {
		case wal.CLRRec:
			lsn = r.UndoNext
		case interface{ Prev() word.LSN }:
			lsn = r.Prev()
		default:
			panic(fmt.Sprintf("tx: unexpected record %T at %d in the log chain of %d", rec, lsn, id))
		}
	}
}

// UndoChain is the normal in-place undo (§2.2.3), shared by run-time abort
// and by recovery's rollback of losers after repeating history. It walks
// transaction id's log chain backwards from its last record, undoing every
// update with a compensation record chained after the one before, and
// returns the LSN of the final CLR (last if there was none) and the CLR
// count. The first CLR follows last directly: no record marks where a
// rollback starts. CLRs an earlier, interrupted rollback left steer the
// walk past what they compensated, so no work is undone twice.
//
// The callers differ in how an address logged at LSN lsn is brought
// current, which translate answers for slot addresses and (isValue) for
// the old pointer values being restored — both may have been moved by a
// collector since (§3.5.2, §4.4) — and in where remembered-set upkeep goes:
// onPtrSlot (optional) hears of every pointer slot restored and whether it
// now points into the volatile area.
func UndoChain(log *wal.Manager, mem *vm.Store, id word.TxID, last word.LSN,
	translate func(lsn word.LSN, a word.Addr, isValue bool) word.Addr,
	inVolatile func(word.Addr) bool,
	onPtrSlot func(cur word.Addr, toVolatile bool)) (word.LSN, int) {
	clrs := 0
	compensate := func(cur word.Addr, flags uint8, redo []byte, next word.LSN) {
		last = log.Append(wal.CLRRec{
			TxHdr: wal.TxHdr{TxID: id, PrevLSN: last},
			Addr:  cur, Flags: flags, Redo: redo, UndoNext: next,
		})
		clrs++
	}
	walkChain(log, id, last, func(lsn word.LSN, rec wal.Record) {
		switch r := rec.(type) {
		case wal.UpdateRec:
			cur := translate(lsn, r.Addr, false)
			restored := r.Undo
			var flags uint8
			if r.Flags&wal.UFPtrSlot != 0 {
				flags = wal.UFPtrSlot
				if old := word.Addr(word.GetWord(r.Undo, 0)); !old.IsNil() {
					rv := translate(lsn, old, true)
					restored = make([]byte, word.WordSize)
					word.PutWord(restored, 0, uint64(rv))
					if inVolatile(rv) {
						flags |= wal.UFPtrToVolatile
					}
				}
			}
			compensate(cur, flags, restored, r.PrevLSN)
			mem.WriteBytes(cur, restored, last)
			if r.Flags&wal.UFPtrSlot != 0 && onPtrSlot != nil {
				onPtrSlot(cur, flags&wal.UFPtrToVolatile != 0)
			}
		case wal.LogicalRec:
			cur := translate(lsn, r.Addr, false)
			neg := -r.Delta
			buf := make([]byte, word.WordSize)
			word.PutWord(buf, 0, neg)
			compensate(cur, wal.CLRLogicalDelta, buf, r.PrevLSN)
			mem.WriteWord(cur, mem.ReadWord(cur)+neg, last)
		}
	})
	return last, clrs
}
