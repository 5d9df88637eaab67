package recovery

import (
	"reflect"
	"sort"
	"testing"

	"stableheap/internal/wal"
	"stableheap/internal/word"
)

// A committed update that straddles a page boundary, whose first page was
// flushed (end-write logged) and whose second was not: analysis used to
// dirty only the first page of an update, so the end-write emptied the
// table, redo never started and the second word was lost.
func TestRecoverUpdateSpanningPages(t *testing.T) {
	mem, log, _, dev := newRig()
	bootstrap(mem, log)
	addr := word.Addr(ps - word.WordSize)
	redo := append(w64(11), w64(22)...)
	l1 := log.Append(wal.UpdateRec{TxHdr: wal.TxHdr{TxID: 1},
		Addr: addr, Redo: redo, Undo: make([]byte, len(redo))})
	mem.WriteBytes(addr, redo, l1)
	log.Append(wal.CommitRec{TxHdr: wal.TxHdr{TxID: 1, PrevLSN: l1}})
	mem.FlushPage(0) // first page only; emits its end-write record
	log.ForceAll()
	dev.Crash()
	mem.Crash()
	res, err := Recover(mem, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := mem.ReadWord(addr), mem.ReadWord(addr+word.WordSize); a != 11 || b != 22 {
		t.Fatalf("words read back %d, %d (want 11, 22); dirty=%v redoStart=%d applied=%d",
			a, b, res.CP.Dirty, res.RedoStart, res.RedoApplied)
	}
	if want := []wal.DirtyPage{{Page: 1, RecLSN: l1}}; !reflect.DeepEqual(res.CP.Dirty, want) {
		t.Fatalf("dirty table = %v, want %v", res.CP.Dirty, want)
	}
}

// footprintCases lists every record type with page effects, with the pages
// its redo must write stated by hand (256-byte pages).
var footprintCases = []struct {
	name  string
	rec   wal.Record
	pages []word.PageID
}{
	{"update", wal.UpdateRec{Addr: 3*ps + 16, Redo: w64(1), Undo: w64(0)}, []word.PageID{3}},
	{"update-spanning", wal.UpdateRec{Addr: 4*ps - 8, Redo: make([]byte, 16), Undo: make([]byte, 16)}, []word.PageID{3, 4}},
	{"clr-physical-spanning", wal.CLRRec{Addr: 6*ps - 8, Redo: make([]byte, 24)}, []word.PageID{5, 6}},
	{"clr-logical-delta", wal.CLRRec{Addr: 7*ps - 8, Flags: wal.CLRLogicalDelta, Redo: w64(5)}, []word.PageID{6}},
	{"logical", wal.LogicalRec{Addr: 8 * ps, Delta: 3}, []word.PageID{8}},
	{"alloc-spanning", wal.AllocRec{Addr: 10*ps - 16, Descriptor: 7, SizeWords: 2*ps/word.WordSize + 2}, []word.PageID{9, 10, 11}},
	{"copy-content-free", wal.CopyRec{From: 12*ps + 8, To: 21*ps - 8, SizeWords: 3, Descriptor: 9}, []word.PageID{12, 20, 21}},
	{"copy-contents", wal.CopyRec{From: 13*ps + 8, To: 23*ps - 8, SizeWords: 2, Descriptor: 9, Contents: make([]byte, 16)}, []word.PageID{13, 22, 23}},
	{"scan", wal.ScanRec{Page: 14, Fixes: []wal.PtrFix{{Addr: 14*ps + 8, NewPtr: 0x40}, {Addr: 15*ps - 8, NewPtr: 0x48}}}, []word.PageID{14}},
	{"sfix", wal.SFixRec{Page: 16, Fixes: []wal.PtrFix{{Addr: 16 * ps, NewPtr: 0x40}}}, []word.PageID{16}},
	{"base-spanning", wal.BaseRec{Addr: 18*ps - 8, Object: make([]byte, 32)}, []word.PageID{17, 18}},
	{"v2scopy-spanning", wal.V2SCopyRec{From: []word.Addr{0x9000}, Runs: []wal.MoveRun{{To: 19*ps - 16, Bytes: 24}}, Object: make([]byte, 24)}, []word.PageID{18, 19}},
	{"v2scopy-runs-and-fixes", wal.V2SCopyRec{From: []word.Addr{0x9000, 0x9010}, Runs: []wal.MoveRun{{To: 26 * ps, Bytes: 8}, {To: 25*ps - 8, Bytes: 16}},
		Object: make([]byte, 24), Fixes: []wal.PtrFix{{Addr: 24*ps + 8, NewPtr: 26 * ps}, {Addr: 26*ps + 16, NewPtr: 25*ps - 8}, {Addr: 27 * ps, NewPtr: 0x40}}},
		[]word.PageID{24, 25, 26, 27}},
}

// The contract the hand-synchronised switches used to keep by comment: the
// dirty-page table routes a record to exactly the footprint's pages, and
// sequential redo on a blank store modifies exactly those pages — and a
// control record touches nothing.
func TestFootprintCoversRedoAndRouting(t *testing.T) {
	const lsn = word.LSN(100)
	for _, tc := range footprintCases {
		t.Run(tc.name, func(t *testing.T) {
			var got []word.PageID
			seen := map[word.PageID]bool{}
			for _, s := range footprint(tc.rec, nil) {
				for pg, last := s.pages(ps); pg <= last; pg++ {
					if !seen[pg] {
						seen[pg] = true
						got = append(got, pg)
					}
				}
			}
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			if !reflect.DeepEqual(got, tc.pages) {
				t.Fatalf("footprint pages %v, want %v", got, tc.pages)
			}

			dpt := newDirtyPages(ps, nil, word.NilLSN, false)
			dpt.note(lsn, tc.rec)
			var noted []word.PageID
			for _, dp := range dpt.sorted() {
				noted = append(noted, dp.Page)
			}
			if !reflect.DeepEqual(noted, tc.pages) {
				t.Fatalf("dirty-page table holds %v, footprint says %v", noted, tc.pages)
			}

			// Every page of a blank store is stale, so redo must write all
			// of the footprint and nothing else.
			mem, _, _, _ := newRig()
			if !(&redoer{mem: mem, dpt: dpt}).apply(lsn, tc.rec) {
				t.Fatal("redo applied nothing on a blank store")
			}
			var modified []word.PageID
			for _, dp := range mem.DirtyPages() {
				modified = append(modified, dp.Page)
			}
			if !reflect.DeepEqual(modified, tc.pages) {
				t.Fatalf("redo modified pages %v, footprint says %v", modified, tc.pages)
			}
		})
	}

	control := []wal.Record{
		wal.CommitRec{}, wal.EndRec{}, wal.PrepareRec{},
		wal.FlipRec{ToLo: 0x1000, ToHi: 0x2000}, wal.GCEndRec{}, wal.VFlipRec{},
		wal.EndWriteRec{Page: 3}, wal.CheckpointRec{},
		wal.ScanRec{Page: 3}, wal.SFixRec{Page: 3}, wal.V2SCopyRec{}, // no fixes, no writes
	}
	for _, rec := range control {
		if writes := footprint(rec, nil); len(writes) > 0 {
			t.Fatalf("%T: footprint %v, want empty", rec, writes)
		}
	}
}
