package recovery

import (
	"fmt"
	"slices"

	"stableheap/internal/heap"
	"stableheap/internal/vm"
	"stableheap/internal/wal"
	"stableheap/internal/word"
)

// redoer repeats history (§2.2.3): every redo record is re-applied to each
// page it touches unless the page already reflects it (page LSN
// conditioning), so replaying the stable log reproduces exactly the cache
// state the crash destroyed.
type redoer struct {
	mem   *vm.Store
	dpt   *dirtyPages
	spans []span // apply's footprint, reused
}

// stale reports whether pg does not yet reflect the record at lsn.
func (r *redoer) stale(pg word.PageID, lsn word.LSN) bool {
	return r.mem.PageLSN(pg) < lsn
}

// applyConditional writes data at addr page by page, skipping pages whose
// LSN already covers the record. Returns true if any page changed.
func (r *redoer) applyConditional(addr word.Addr, data []byte, lsn word.LSN) bool {
	return r.applyPages(addr, data, lsn, func(pg word.PageID) bool { return r.stale(pg, lsn) })
}

// applyPages writes data at addr under lsn on the pages take approves,
// page by page. Returns true if any page changed.
func (r *redoer) applyPages(addr word.Addr, data []byte, lsn word.LSN, take func(word.PageID) bool) bool {
	ps := r.mem.PageSize()
	applied := false
	for len(data) > 0 {
		pg := addr.Page(ps)
		n := min(len(data), int(pg.Base(ps)+word.Addr(ps)-addr))
		if take(pg) {
			r.mem.WriteBytes(addr, data[:n], lsn)
			applied = true
		}
		addr, data = addr+word.Addr(n), data[n:]
	}
	return applied
}

// apply replays one record; returns true if a page was modified. A range of
// the record's footprint is replayed only if the dirty page table says one
// of its pages may need it.
func (r *redoer) apply(lsn word.LSN, rec wal.Record) bool {
	r.spans = footprint(rec, r.spans[:0])
	if !slices.ContainsFunc(r.spans, func(s span) bool { return r.dpt.relevant(s, lsn) }) {
		return false
	}
	switch t := rec.(type) {
	case wal.UpdateRec:
		return r.applyConditional(t.Addr, t.Redo, lsn)
	case wal.CLRRec:
		if t.Flags&wal.CLRLogicalDelta != 0 {
			return r.applyDelta(t.Addr, word.GetWord(t.Redo, 0), lsn)
		}
		return r.applyConditional(t.Addr, t.Redo, lsn)
	case wal.LogicalRec:
		return r.applyDelta(t.Addr, t.Delta, lsn)
	case wal.AllocRec:
		img := make([]byte, word.WordsToBytes(t.SizeWords))
		word.PutWord(img, 0, t.Descriptor)
		return r.applyConditional(t.Addr, img, lsn)
	case wal.CopyRec:
		return r.applyCopy(lsn, t, r.dpt.relevant(r.spans[0], lsn), r.dpt.relevant(r.spans[1], lsn))
	case wal.ScanRec:
		return r.applyFixes(lsn, t.Fixes)
	case wal.SFixRec:
		return r.applyFixes(lsn, t.Fixes)
	case wal.BaseRec:
		return r.applyConditional(t.Addr, t.Object, lsn)
	case wal.V2SCopyRec:
		return r.applyMoveCycle(lsn, t)
	}
	panic(fmt.Sprintf("recovery: %T has a footprint but no redo", rec))
}

// applyCopy replays a copy step (§3.4.1). The to-space image is rebuilt
// from the replayed from-space contents plus the descriptor preserved in
// the record (the from-space word 0 may already hold the forwarding
// pointer — the lost-descriptor crash of Fig. 3.5); then the forwarding
// pointer itself is re-applied to the from-space page if it was lost
// (Fig. 3.4). needTo and needFrom are the two ranges' relevance.
func (r *redoer) applyCopy(lsn word.LSN, t wal.CopyRec, needTo, needFrom bool) bool {
	n := word.WordsToBytes(t.SizeWords)
	applied := false
	if needTo {
		// Content-carrying ablation: self-contained replay.
		img := t.Contents
		if len(img) != n {
			// Content-free replay reads the replayed from-space image.
			img = make([]byte, n)
			word.PutWord(img, 0, t.Descriptor)
			if t.SizeWords > 1 {
				copy(img[word.WordSize:], r.mem.ReadBytes(t.From.Add(1), n-word.WordSize))
			}
		}
		applied = r.applyConditional(t.To, img, lsn)
	}
	if needFrom && r.stale(t.From.Page(r.mem.PageSize()), lsn) {
		r.mem.WriteWord(t.From, uint64(heap.ForwardingDescriptor(t.To)), lsn)
		applied = true
	}
	return applied
}

// applyDelta replays a logical wrapping-add, apply-once by page-LSN
// conditioning (the logical redo of §2.2.4).
func (r *redoer) applyDelta(addr word.Addr, delta uint64, lsn word.LSN) bool {
	if !r.stale(addr.Page(r.mem.PageSize()), lsn) {
		return false
	}
	r.mem.WriteWord(addr, r.mem.ReadWord(addr)+delta, lsn)
	return true
}

// applyFixes replays a scan or SFix record: all slots live on one page, so
// one page-LSN test covers the batch.
func (r *redoer) applyFixes(lsn word.LSN, fixes []wal.PtrFix) bool {
	if !r.stale(fixes[0].Addr.Page(r.mem.PageSize()), lsn) {
		return false
	}
	for _, f := range fixes {
		r.mem.WriteWord(f.Addr, uint64(f.NewPtr), lsn)
	}
	return true
}

// applyMoveCycle replays a move cycle's images and fixes, judging each page
// once, at its first write (wal.V2SCopyRec.Writes): a page the dirty page
// table names and whose LSN predates the record takes all of its writes.
func (r *redoer) applyMoveCycle(lsn word.LSN, t wal.V2SCopyRec) bool {
	applied, judged, take, last := false, false, false, word.PageID(0)
	t.Writes(func(at word.Addr, b []byte) {
		applied = r.applyPages(at, b, lsn, func(pg word.PageID) bool {
			if !judged || pg != last {
				judged, last = true, pg
				take = r.dpt.relevant(span{pg.Base(r.mem.PageSize()), 1}, lsn) && r.stale(pg, lsn)
			}
			return take
		}) || applied
	})
	return applied
}
