package recovery

import (
	"fmt"
	"sort"

	"stableheap/internal/storage"
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

// footprint is the one place a record type is mapped to pages: it appends
// to out the byte ranges the record's redo writes (none for control
// records). The dirty-page table and redo's relevance test are both derived
// from it, so they cannot disagree about which pages a record touches.
//
// A collector copy record writes two ranges — the to-space image, then the
// forwarding word planted over the from-space descriptor — and a move
// cycle one per run and per fix, in address order. The fixes of a scan or
// SFix record are batched per page by their writers, so the first slot
// names the page of all.
func footprint(rec wal.Record, out []span) []span {
	switch t := rec.(type) {
	case wal.UpdateRec:
		out = append(out, span{t.Addr, len(t.Redo)})
	case wal.CLRRec:
		if t.Flags&wal.CLRLogicalDelta != 0 {
			out = append(out, span{t.Addr, word.WordSize})
		} else {
			out = append(out, span{t.Addr, len(t.Redo)})
		}
	case wal.LogicalRec:
		out = append(out, span{t.Addr, word.WordSize})
	case wal.AllocRec:
		out = append(out, span{t.Addr, word.WordsToBytes(t.SizeWords)})
	case wal.CopyRec:
		out = append(out, span{t.To, word.WordsToBytes(t.SizeWords)}, span{t.From, word.WordSize})
	case wal.ScanRec:
		if len(t.Fixes) > 0 {
			out = append(out, span{t.Fixes[0].Addr, word.WordSize})
		}
	case wal.SFixRec:
		if len(t.Fixes) > 0 {
			out = append(out, span{t.Fixes[0].Addr, word.WordSize})
		}
	case wal.BaseRec:
		out = append(out, span{t.Addr, len(t.Object)})
	case wal.V2SCopyRec:
		t.Writes(func(at word.Addr, b []byte) { out = append(out, span{at, len(b)}) })
	}
	return out
}

// dirtyPages is the dirty-page table (§2.2.4): for every page whose disk
// image may lack logged writes, the LSN of the first record that dirtied it
// since it last reached disk. The analysis pass calls note for every
// record: a record dirties the pages of its footprint; an end-write record
// certifies its page clean, unless a record it does not cover lies before
// it.
type dirtyPages struct {
	pageSize int
	recLSN   map[word.PageID]word.LSN
	// last holds, per page, the last record seen that writes it. Written
	// at run time, an end-write's page LSN is the page's last record
	// before it; written by redo, which also flushes what it evicts, the
	// end-write lands after every record of the crashed log, and a page
	// redo evicts and then dirties again has records before the end-write
	// that the disk lacks. Redo may start before the checkpoint, where
	// analysis sees no record, so a page the checkpoint lists as dirty
	// starts at the checkpoint's LSN: an end-write below it proves nothing.
	last map[word.PageID]word.LSN
	// certified holds, per page, the highest page LSN an end-write record
	// says reached disk: the disk must hold at least that (lostWrite).
	certified map[word.PageID]word.LSN
	// media: the disk the end-write records certified is gone (archive
	// recovery), so they prune nothing.
	media bool
	spans []span // note's footprint, reused
}

// newDirtyPages seeds the table from the dirty list of the checkpoint at
// cpLSN; should the list name a page twice, redo must start at the earliest.
func newDirtyPages(pageSize int, seed []wal.DirtyPage, cpLSN word.LSN, media bool) *dirtyPages {
	d := &dirtyPages{pageSize: pageSize, media: media, recLSN: make(map[word.PageID]word.LSN),
		last: make(map[word.PageID]word.LSN), certified: make(map[word.PageID]word.LSN)}
	for _, dp := range seed {
		if cur, ok := d.recLSN[dp.Page]; !ok || dp.RecLSN < cur {
			d.recLSN[dp.Page] = dp.RecLSN
		}
		d.last[dp.Page] = cpLSN
	}
	return d
}

// note folds the record at lsn into the table.
func (d *dirtyPages) note(lsn word.LSN, rec wal.Record) {
	if ew, ok := rec.(wal.EndWriteRec); ok {
		// The pages reached disk: redo for each can start later unless a
		// subsequent record re-dirties it, or an earlier one is missing. A
		// run certifies every page of it at the one page LSN it was
		// written with.
		if !d.media {
			for pg := ew.Page; pg < ew.Page+word.PageID(ew.Pages()); pg++ {
				if d.last[pg] <= ew.PageLSN {
					delete(d.recLSN, pg)
				}
				d.certified[pg] = max(d.certified[pg], ew.PageLSN)
			}
		}
		return
	}
	d.spans = footprint(rec, d.spans[:0])
	for _, s := range d.spans {
		for pg, last := s.pages(d.pageSize); pg <= last; pg++ {
			if _, ok := d.recLSN[pg]; !ok {
				d.recLSN[pg] = lsn
			}
			d.last[pg] = lsn
		}
	}
}

// lostWrite returns a CorruptPageError for the lowest page the disk holds
// at a page LSN below the one an end-write record certified: a write the
// log calls done that the disk lost, or a first write a crash tore before
// its slot header landed. Redo would skip it as clean, so recovery refuses.
func (d *dirtyPages) lostWrite(disk *storage.Disk) error {
	var err *storage.CorruptPageError
	for pg, want := range d.certified {
		if lsn := disk.PageLSN(pg); lsn < want && (err == nil || pg < err.Page) {
			err = &storage.CorruptPageError{Page: pg, Reason: fmt.Sprintf(
				"page LSN %d is below the %d an end-write record certified: the write was lost or torn", lsn, want)}
		}
	}
	if err == nil {
		return nil
	}
	return err
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
