package recovery

import (
	"stableheap/internal/tx"
	"stableheap/internal/vm"
	"stableheap/internal/wal"
	"stableheap/internal/word"
)

// undoer rolls back loser transactions after redo, exactly as §2.2.3
// prescribes: repeating history first makes it valid to abort the losers
// with the normal in-place undo. The twist the paper adds is address
// translation (§4.4): an undo record names the object's address at the
// time of the update, but the collector may have moved the object since —
// possibly several times, across collections. The checkpointed UTT seeds
// plus the copy records replayed after the checkpoint give the current
// address.
type undoer struct {
	mem *vm.Store
	log *wal.Manager
	// a supplies the checkpoint LSN, the copies replayed after it (in LSN
	// order) and the remembered set, which undo keeps current.
	a *analysis
}

// translate chases an undo address to the object slot's current location.
// lsn is the LSN of the record that logged the address: the address was
// current THEN, so only copies performed after it may move the object —
// an earlier copy whose from-space range happens to cover the address
// (because the allocator reused the space after the collection) must not
// be applied, or the translation lands in an unrelated object. Addresses
// logged before the checkpoint go through the transaction's checkpointed
// UTT seed first — looked up by (record LSN, address), since one
// transaction can log the same reused address for two different objects
// across collections — which brings them current as of the checkpoint;
// every entry in a.copies is from after the checkpoint, so the same >
// filter then applies with the checkpoint as the baseline.
func (u *undoer) translate(info *txInfo, a word.Addr, lsn word.LSN) word.Addr {
	since := lsn
	if lsn == word.NilLSN || lsn < u.a.cpLSN {
		if cur, ok := info.seed[seedKey{at: lsn, orig: a}]; ok {
			a = cur
		}
		since = u.a.cpLSN
	}
	for _, c := range u.a.copies {
		if c.lsn > since && a >= c.from && a < c.from.Add(c.size) {
			a = c.to + (a - c.from)
		}
	}
	return a
}

// rollback aborts one loser with the normal undo, its first CLR chained
// directly after the loser's last record. An abort that was already under
// way at the crash resumes where its last CLR's UndoNext says it left off.
func (u *undoer) rollback(id word.TxID, info *txInfo) {
	last, _ := tx.UndoChain(u.log, u.mem, id, info.lastLSN,
		func(lsn word.LSN, a word.Addr, _ bool) word.Addr { return u.translate(info, a, lsn) },
		u.a.inVolatile, u.a.updateSRem)
	u.log.Append(wal.EndRec{TxHdr: wal.TxHdr{TxID: id, PrevLSN: last}})
}
