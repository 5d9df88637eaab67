package recovery

import (
	"sort"

	"stableheap/internal/wal"
	"stableheap/internal/word"
)

// span is one byte range [addr, addr+n) that a record's redo writes.
type span struct {
	addr word.Addr
	n    int
}

// pages returns the first and last page the span overlaps; an empty span
// returns first > last, so `for pg, last := s.pages(ps); pg <= last; pg++`
// visits nothing.
func (s span) pages(pageSize int) (first, last word.PageID) {
	if s.n <= 0 {
		return 1, 0
	}
	return s.addr.Page(pageSize), (s.addr + word.Addr(s.n) - 1).Page(pageSize)
}

// footprint is the one place a record type is mapped to pages: the byte
// ranges the record's redo writes (both empty for control records). The
// dirty-page table and redo's relevance test are both derived from it, so
// they cannot disagree about which pages a record touches.
//
// Only a collector copy record writes two ranges — the to-space image and
// the forwarding word planted over the from-space descriptor. The fixes of
// a scan or SFix record are batched per page by their writers, so the first
// slot names the page of all.
func footprint(rec wal.Record) (writes [2]span) {
	switch t := rec.(type) {
	case wal.UpdateRec:
		writes[0] = span{t.Addr, len(t.Redo)}
	case wal.CLRRec:
		if t.Flags&wal.CLRLogicalDelta != 0 {
			writes[0] = span{t.Addr, word.WordSize}
		} else {
			writes[0] = span{t.Addr, len(t.Redo)}
		}
	case wal.LogicalRec:
		writes[0] = span{t.Addr, word.WordSize}
	case wal.AllocRec:
		writes[0] = span{t.Addr, word.WordsToBytes(t.SizeWords)}
	case wal.CopyRec:
		n := word.WordsToBytes(t.SizeWords)
		writes[0] = span{t.To, n}
		writes[1] = span{t.From, word.WordSize}
	case wal.ScanRec:
		if len(t.Fixes) > 0 {
			writes[0] = span{t.Fixes[0].Addr, word.WordSize}
		}
	case wal.SFixRec:
		if len(t.Fixes) > 0 {
			writes[0] = span{t.Fixes[0].Addr, word.WordSize}
		}
	case wal.BaseRec:
		writes[0] = span{t.Addr, len(t.Object)}
	case wal.V2SCopyRec:
		writes[0] = span{t.To, len(t.Object)}
	}
	return writes
}

// dirtyPages is the dirty-page table (§2.2.4): for every page whose disk
// image may lack logged writes, the LSN of the first record that dirtied it
// since it last reached disk. The analysis pass calls note for every
// record: a record dirties the pages of its footprint; an end-write record
// certifies its page clean.
type dirtyPages struct {
	pageSize int
	recLSN   map[word.PageID]word.LSN
	// media: the disk the end-write records certified is gone (archive
	// recovery), so they prune nothing.
	media bool
}

// newDirtyPages seeds the table from a checkpoint's dirty list; should the
// list name a page twice, redo must start at the earliest.
func newDirtyPages(pageSize int, seed []wal.DirtyPage, media bool) *dirtyPages {
	d := &dirtyPages{pageSize: pageSize, recLSN: make(map[word.PageID]word.LSN), media: media}
	for _, dp := range seed {
		if cur, ok := d.recLSN[dp.Page]; !ok || dp.RecLSN < cur {
			d.recLSN[dp.Page] = dp.RecLSN
		}
	}
	return d
}

// note folds the record at lsn into the table.
func (d *dirtyPages) note(lsn word.LSN, rec wal.Record) {
	if ew, ok := rec.(wal.EndWriteRec); ok {
		// The page reached disk: redo for it can start later unless a
		// subsequent record re-dirties it.
		if !d.media {
			delete(d.recLSN, ew.Page)
		}
		return
	}
	for _, s := range footprint(rec) {
		for pg, last := s.pages(d.pageSize); pg <= last; pg++ {
			if _, ok := d.recLSN[pg]; !ok {
				d.recLSN[pg] = lsn
			}
		}
	}
}

// relevant reports whether any page of s may need the record at lsn: it is
// in the table with a recLSN at or below lsn.
func (d *dirtyPages) relevant(s span, lsn word.LSN) bool {
	for pg, last := s.pages(d.pageSize); pg <= last; pg++ {
		if rec, ok := d.recLSN[pg]; ok && rec <= lsn {
			return true
		}
	}
	return false
}

// redoStart returns the earliest recLSN in the table — where repeating
// history begins — or NilLSN when no page is dirty.
func (d *dirtyPages) redoStart() word.LSN {
	start := word.NilLSN
	for _, rec := range d.recLSN {
		if start == word.NilLSN || rec < start {
			start = rec
		}
	}
	return start
}

// sorted lists the table in page order (map iteration is not
// deterministic): checkpoints re-log it, and equivalent recoveries must
// produce byte-identical results.
func (d *dirtyPages) sorted() []wal.DirtyPage {
	var out []wal.DirtyPage
	for pg, rec := range d.recLSN {
		out = append(out, wal.DirtyPage{Page: pg, RecLSN: rec})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Page < out[j].Page })
	return out
}
