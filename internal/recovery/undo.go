package recovery

import (
	"fmt"

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
	mem    memWriter
	log    *wal.Manager
	cpLSN  word.LSN
	copies []copyEntry // in LSN order, all after cpLSN
	// volLo/volHi bound the volatile area (from the checkpoint), for
	// re-deriving the remembered-set flag of restored pointers.
	volLo, volHi word.Addr
	// srem is the analysis's remembered set, kept current through undo.
	srem map[word.Addr]bool
}

// inVolatile reports whether a lies in the volatile area.
func (u *undoer) inVolatile(a word.Addr) bool { return a >= u.volLo && a < u.volHi }

// memWriter is the slice of vm.Store the undoer needs: physical undo
// images travel in the records (write-only), but logical undo reads the
// current word to apply its delta.
type memWriter interface {
	WriteBytes(addr word.Addr, data []byte, lsn word.LSN)
	ReadWord(addr word.Addr) uint64
	WriteWord(addr word.Addr, w uint64, lsn word.LSN)
}

// applyDelta performs a logical compensation: wrapping-add at cur.
func (u *undoer) applyDelta(cur word.Addr, delta uint64, lsn word.LSN) {
	u.mem.WriteWord(cur, u.mem.ReadWord(cur)+delta, lsn)
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
// every entry in u.copies is from after the checkpoint, so the same >
// filter then applies with the checkpoint as the baseline.
func (u *undoer) translate(info *txInfo, a word.Addr, lsn word.LSN) word.Addr {
	since := lsn
	if lsn == word.NilLSN || lsn < u.cpLSN {
		if cur, ok := info.seed[seedKey{at: lsn, orig: a}]; ok {
			a = cur
		}
		since = u.cpLSN
	}
	for _, c := range u.copies {
		if c.lsn > since && a >= c.from && a < c.from.Add(c.size) {
			a = c.to + (a - c.from)
		}
	}
	return a
}

// rollback undoes one loser by walking its log chain backwards from its
// last record, writing a CLR per undone update. A transaction that was
// already mid-abort at the crash resumes where it left off: its trailing
// CLRs steer the walk via UndoNext, so compensated work is never undone
// twice.
func (u *undoer) rollback(id word.TxID, info *txInfo) {
	lastLSN := u.log.Append(wal.AbortRec{TxHdr: wal.TxHdr{TxID: id, PrevLSN: info.lastLSN}})
	lsn := info.lastLSN
	for lsn != word.NilLSN {
		rec, err := u.log.ReadAt(lsn)
		if err != nil {
			panic(fmt.Sprintf("recovery: loser %d chain broken at %d: %v", id, lsn, err))
		}
		switch r := rec.(type) {
		case wal.UpdateRec:
			cur := u.translate(info, r.Addr, lsn)
			restored := r.Undo
			var flags uint8
			if r.Flags&wal.UFPtrSlot != 0 {
				flags = wal.UFPtrSlot
				// The restored value is a pointer the collector may
				// have moved since the update was logged (§3.5.2):
				// chase it through the same translation machinery.
				if old := word.Addr(word.GetWord(r.Undo, 0)); !old.IsNil() {
					rv := u.translate(info, old, lsn)
					restored = make([]byte, word.WordSize)
					word.PutWord(restored, 0, uint64(rv))
					if u.inVolatile(rv) {
						flags |= wal.UFPtrToVolatile
					}
				}
			}
			clr := u.log.Append(wal.CLRRec{
				TxHdr:    wal.TxHdr{TxID: id, PrevLSN: lastLSN},
				Addr:     cur,
				Flags:    flags,
				Redo:     restored,
				UndoNext: r.PrevLSN,
			})
			lastLSN = clr
			u.mem.WriteBytes(cur, restored, clr)
			if srem := u.srem; srem != nil && r.Flags&wal.UFPtrSlot != 0 && !u.inVolatile(cur) {
				if flags&wal.UFPtrToVolatile != 0 {
					srem[cur] = true
				} else {
					delete(srem, cur)
				}
			}
			lsn = r.PrevLSN
		case wal.LogicalRec:
			cur := u.translate(info, r.Addr, lsn)
			neg := -r.Delta
			buf := make([]byte, word.WordSize)
			word.PutWord(buf, 0, neg)
			clr := u.log.Append(wal.CLRRec{
				TxHdr: wal.TxHdr{TxID: id, PrevLSN: lastLSN},
				Addr:  cur, Flags: wal.CLRLogicalDelta, Redo: buf, UndoNext: r.PrevLSN,
			})
			lastLSN = clr
			u.applyDelta(cur, neg, clr)
			lsn = r.PrevLSN
		case wal.CLRRec:
			lsn = r.UndoNext
		case wal.BeginRec:
			lsn = word.NilLSN
		case wal.AbortRec:
			lsn = r.PrevLSN
		case wal.PrepareRec:
			lsn = r.PrevLSN
		case wal.AllocRec:
			lsn = r.PrevLSN
		case wal.BaseRec:
			lsn = r.PrevLSN
		case wal.CompleteRec:
			lsn = r.PrevLSN
		default:
			panic(fmt.Sprintf("recovery: unexpected %T in undo chain of %d", rec, id))
		}
	}
	u.log.Append(wal.EndRec{TxHdr: wal.TxHdr{TxID: id, PrevLSN: lastLSN}})
}
