package tx

import (
	"fmt"

	"stableheap/internal/vm"
	"stableheap/internal/wal"
	"stableheap/internal/word"
)

// UndoChain is the normal in-place undo (§2.2.3), shared by run-time abort
// and by recovery's rollback of losers after repeating history. It walks
// transaction id's log chain backwards from the record at from, undoing
// every update with a compensation record chained after last, and returns
// the LSN of the final CLR (last if there was none) and the CLR count.
// Trailing CLRs of an abort that was already under way steer the walk via
// UndoNext, so compensated work is never undone twice.
//
// The callers differ in how an address logged at LSN lsn is brought
// current, which translate answers for slot addresses and (isValue) for
// the old pointer values being restored — both may have been moved by a
// collector since (§3.5.2, §4.4) — and in where remembered-set upkeep goes:
// onPtrSlot (optional) hears of every pointer slot restored and whether it
// now points into the volatile area.
func UndoChain(log *wal.Manager, mem *vm.Store, id word.TxID, from, last word.LSN,
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
	for lsn := from; lsn != word.NilLSN; {
		rec, err := log.ReadAt(lsn)
		if err != nil {
			panic(fmt.Sprintf("tx: undo chain of %d broken at %d: %v", id, lsn, err))
		}
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
			lsn = r.PrevLSN
		case wal.LogicalRec:
			cur := translate(lsn, r.Addr, false)
			neg := -r.Delta
			buf := make([]byte, word.WordSize)
			word.PutWord(buf, 0, neg)
			compensate(cur, wal.CLRLogicalDelta, buf, r.PrevLSN)
			mem.WriteWord(cur, mem.ReadWord(cur)+neg, last)
			lsn = r.PrevLSN
		case wal.CLRRec:
			lsn = r.UndoNext
		case wal.AbortRec:
			lsn = r.PrevLSN
		case wal.PrepareRec:
			lsn = r.PrevLSN // the coordinator said abort; skip the prepare
		case wal.AllocRec:
			lsn = r.PrevLSN // allocation needs no undo
		case wal.BaseRec:
			lsn = r.PrevLSN // redo-only
		case wal.CompleteRec:
			lsn = r.PrevLSN
		default:
			panic(fmt.Sprintf("tx: unexpected record %T in undo chain of %d", rec, id))
		}
	}
	return last, clrs
}
