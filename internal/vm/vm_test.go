package vm

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"stableheap/internal/storage"
	"stableheap/internal/storage/filestore"
	"stableheap/internal/wal"
	"stableheap/internal/word"
)

const ps = 256 // page size for tests

func newStore(cachePages int) (*Store, *storage.Disk, *wal.Manager) {
	disk := storage.NewDisk(ps)
	log := wal.NewManager(storage.NewLog(0))
	s := New(Config{PageSize: ps, CachePages: cachePages}, disk, log)
	return s, disk, log
}

func TestReadBackZeroFilled(t *testing.T) {
	s, _, _ := newStore(0)
	got := s.ReadBytes(0x1000, 16)
	if !bytes.Equal(got, make([]byte, 16)) {
		t.Fatal("fresh pages must read as zero")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	s, _, _ := newStore(0)
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	s.WriteBytes(0x100, data, 5)
	if got := s.ReadBytes(0x100, 8); !bytes.Equal(got, data) {
		t.Fatalf("got %v", got)
	}
}

func TestWriteAcrossPageBoundary(t *testing.T) {
	s, _, _ := newStore(0)
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(i + 1)
	}
	addr := word.Addr(ps - 32) // straddles pages 0 and 1
	s.WriteBytes(addr, data, 9)
	if got := s.ReadBytes(addr, 64); !bytes.Equal(got, data) {
		t.Fatal("cross-page write corrupted data")
	}
	if s.PageLSN(0) != 9 || s.PageLSN(1) != 9 {
		t.Fatal("both touched pages must carry the record's LSN")
	}
}

func TestWordReadWrite(t *testing.T) {
	s, _, _ := newStore(0)
	s.WriteWord(0x80, 0xdeadbeefcafe, 3)
	if got := s.ReadWord(0x80); got != 0xdeadbeefcafe {
		t.Fatalf("got %#x", got)
	}
}

func TestUnloggedWriteDoesNotAdvancePageLSN(t *testing.T) {
	s, _, _ := newStore(0)
	s.WriteWord(0x10, 7, 20)
	s.WriteWord(0x18, 8, word.NilLSN) // volatile-object write
	if s.PageLSN(0) != 20 {
		t.Fatalf("PageLSN = %d, want 20", s.PageLSN(0))
	}
	// Unlogged-only dirty pages are excluded from the dirty page table.
	s2, _, _ := newStore(0)
	s2.WriteWord(0x10, 7, word.NilLSN)
	if len(s2.DirtyPages()) != 0 {
		t.Fatal("page dirtied only by unlogged writes must not appear in DPT")
	}
}

func TestDirtyPagesRecLSNIsFirstLogged(t *testing.T) {
	s, _, _ := newStore(0)
	s.WriteWord(0x10, 1, 30)
	s.WriteWord(0x18, 2, 40)
	dp := s.DirtyPages()
	if len(dp) != 1 || dp[0].Page != 0 || dp[0].RecLSN != 30 {
		t.Fatalf("DPT = %+v", dp)
	}
}

func TestFlushWritesThroughAndCleans(t *testing.T) {
	s, disk, _ := newStore(0)
	s.WriteWord(0x10, 77, 5)
	s.FlushPage(0)
	data, lsn, ok := disk.ReadPage(0)
	if !ok || lsn != 5 || word.GetWord(data, 0x10) != 77 {
		t.Fatal("flush must write contents and page LSN to disk")
	}
	if len(s.DirtyPages()) != 0 {
		t.Fatal("flushed page must leave the DPT")
	}
}

func TestWALConstraintForcesLog(t *testing.T) {
	s, _, log := newStore(0)
	log.Append(wal.CommitRec{})
	rec := log.Append(wal.EndWriteRec{Page: 99}) // stands in for an update record
	s.WriteWord(0x10, 1, rec)
	if log.IsStable(rec) {
		t.Fatal("precondition: record must be volatile")
	}
	s.FlushPage(0)
	if !log.IsStable(rec) {
		t.Fatal("flushing the page must first force the covering log record")
	}
	if s.Met.LogForces.Load() != 1 {
		t.Fatalf("LogForces = %d, want 1", s.Met.LogForces.Load())
	}
}

func TestCrashLosesCacheKeepsDisk(t *testing.T) {
	s, _, _ := newStore(0)
	s.WriteWord(0x10, 1, 5)
	s.FlushPage(0)
	s.WriteWord(0x10, 2, 6) // dirty again, never flushed
	s.Crash()
	if got := s.ReadWord(0x10); got != 1 {
		t.Fatalf("after crash page must revert to last flushed value, got %d", got)
	}
	if s.PageLSN(0) != 5 {
		t.Fatalf("page LSN after crash = %d, want 5", s.PageLSN(0))
	}
}

func TestEvictionFlushesDirtyVictim(t *testing.T) {
	s, disk, _ := newStore(1)
	s.WriteWord(0, 42, 7) // page 0 dirty
	s.ReadWord(ps)        // page 1: evicts page 0
	if !hasPage(disk, 0) {
		t.Fatal("evicting a dirty page must write it to disk")
	}
	data, _, _ := disk.ReadPage(0)
	if word.GetWord(data, 0) != 42 {
		t.Fatal("evicted contents wrong")
	}
}

// TestFetchAndEndWriteRecordsSpooled: a write back spools one end-write
// record carrying the page LSN it wrote; the fetch that follows spools
// nothing, since recovery seeds its dirty page table from the checkpoint
// (DESIGN.md §4.3).
func TestFetchAndEndWriteRecordsSpooled(t *testing.T) {
	s, _, log := newStore(0)
	lsn := log.Append(wal.CommitRec{})
	s.WriteWord(0x10, 1, lsn)
	s.FlushPage(0)
	s.Crash()
	s.ReadWord(0x10) // fetches from disk
	if got := s.Met.Fetches.Load(); got != 1 {
		t.Fatalf("Fetches = %d, want 1", got)
	}
	var recs []wal.Record
	log.ForceAll()
	log.Scan(1, false, func(_ word.LSN, r wal.Record) bool { recs = append(recs, r); return true })
	want := []wal.Record{wal.CommitRec{}, wal.EndWriteRec{Page: 0, PageLSN: lsn}}
	if !slices.Equal(recs, want) {
		t.Fatalf("log = %+v, want %+v", recs, want)
	}
}

// TestNoFetchRecordsWhenDisabled: fetch logging has no switch any more and
// is always off. Disk fetches through a one-page cache, each evicting a
// clean page, append nothing after the end-writes of the flushes.
func TestNoFetchRecordsWhenDisabled(t *testing.T) {
	s, _, log := newStore(1)
	for pg := range 8 {
		s.WriteWord(word.Addr(pg*ps+8), 1, 2)
	}
	s.FlushAll()
	count := func() int {
		n := 0
		log.Scan(1, false, func(_ word.LSN, r wal.Record) bool { n++; return true })
		return n
	}
	if n := count(); n != 8 { // one end-write per page
		t.Fatalf("after flushing: %d records, want 8", n)
	}
	s.Crash()
	for pg := range 8 {
		s.ReadWord(word.Addr(pg*ps + 8))
	}
	if got := s.Met.Fetches.Load(); got != 8 {
		t.Fatalf("Fetches = %d, want 8", got)
	}
	if n := count(); n != 8 {
		t.Fatalf("after fetching: %d records, want 8", n)
	}
}

func TestProtectionTrapFires(t *testing.T) {
	s, _, _ := newStore(0)
	trapped := []word.PageID{}
	s.SetTrapHandler(func(pg word.PageID) {
		trapped = append(trapped, pg)
		s.Unprotect(pg)
	})
	s.Protect(3)
	s.EnsureAccessible(3*ps+8, 8)
	if len(trapped) != 1 || trapped[0] != 3 {
		t.Fatalf("trapped = %v", trapped)
	}
	if s.Met.Traps.Load() != 1 {
		t.Fatal("trap counter")
	}
	// Second access: no trap.
	s.EnsureAccessible(3*ps+8, 8)
	if s.Met.Traps.Load() != 1 {
		t.Fatal("unprotected page must not trap again")
	}
}

func TestTrapSpanningMultiplePages(t *testing.T) {
	s, _, _ := newStore(0)
	s.SetTrapHandler(func(pg word.PageID) { s.Unprotect(pg) })
	s.Protect(0)
	s.Protect(1)
	s.EnsureAccessible(ps-8, 16) // touches pages 0 and 1
	if s.Met.Traps.Load() != 2 {
		t.Fatalf("traps = %d, want 2", s.Met.Traps.Load())
	}
}

func TestHandlerMustUnprotect(t *testing.T) {
	s, _, _ := newStore(0)
	s.SetTrapHandler(func(pg word.PageID) {}) // buggy handler
	s.Protect(0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when handler leaves page protected")
		}
	}()
	s.EnsureAccessible(0, 8)
}

func TestProtectedPageNotEvicted(t *testing.T) {
	s, _, _ := newStore(2)
	s.ReadWord(0) // page 0 resident
	s.Protect(0)
	s.ReadWord(ps)     // page 1
	s.ReadWord(2 * ps) // page 2: must evict page 1
	if s.lookup(0) == nil {
		t.Fatal("protected page must not be evicted")
	}
}

func TestProtectDoesNotFaultPageIn(t *testing.T) {
	s, _, _ := newStore(0)
	s.Protect(7)
	if len(s.ResidentPages()) != 0 {
		t.Fatal("Protect must not materialize the page")
	}
	if !s.Protected(7) {
		t.Fatal("page must report protected")
	}
	s.Unprotect(7)
	if s.Protected(7) {
		t.Fatal("Unprotect must clear")
	}
}

func TestCrashClearsProtection(t *testing.T) {
	s, _, _ := newStore(0)
	s.Protect(1)
	s.Crash()
	if s.Protected(1) {
		t.Fatal("protection state is volatile and must not survive a crash")
	}
}

func TestDiscardRangeDropsWithoutFlushing(t *testing.T) {
	s, disk, _ := newStore(0)
	s.WriteWord(ps, 9, 4) // page 1, dirty, logged
	ghosts := s.DiscardRange(word.Addr(ps), word.Addr(2*ps))
	if hasPage(disk, 1) {
		t.Fatal("discard must not write the page")
	}
	if len(ghosts) != 1 || ghosts[0].Page != 1 || ghosts[0].RecLSN != 4 {
		t.Fatalf("ghosts = %+v", ghosts)
	}
	if got := s.ReadWord(ps); got != 0 {
		t.Fatal("discarded page must read as its disk image (zero)")
	}
}

// TestDiscardedPageNotReadBack: a discarded page whose slot holds old
// contents comes back zero-filled without a fetch, at the slot's page LSN
// (a write back at LSN 0 would look like a lost write to recovery); once it
// is written back it is an ordinary page again, and a crash forgets the
// mark, because recovery may redo into the range.
func TestDiscardedPageNotReadBack(t *testing.T) {
	s, disk, _ := newStore(0)
	s.WriteWord(ps, 9, 4)
	s.FlushPage(1)
	s.DiscardRange(word.Addr(ps), word.Addr(2*ps))
	if got := s.ReadWord(ps); got != 0 || s.Met.Fetches.Load() != 0 {
		t.Fatalf("discarded page read %d with %d fetches, want 0 and none", got, s.Met.Fetches.Load())
	}
	if lsn := s.PageLSN(1); lsn != 4 {
		t.Fatalf("zero-filled page at LSN %d, want the slot's 4", lsn)
	}
	s.WriteWord(ps+8, 5, word.NilLSN)
	s.FlushPage(1)
	if _, lsn, _ := disk.ReadPage(1); lsn != 4 {
		t.Fatalf("written back at LSN %d, want 4", lsn)
	}
	s.Crash()
	if got := s.ReadWord(ps + 8); got != 5 || s.Met.Fetches.Load() != 1 {
		t.Fatalf("after write back and crash read %d with %d fetches, want 5 and one", got, s.Met.Fetches.Load())
	}
	s.DiscardRange(word.Addr(ps), word.Addr(2*ps))
	s.Crash()
	if got := s.ReadWord(ps + 8); got != 5 {
		t.Fatalf("a crash kept the discard: read %d, want the disk's 5", got)
	}
}

func TestDiscardRangeKeepsPagesOutsideRange(t *testing.T) {
	s, _, _ := newStore(0)
	s.WriteWord(0, 1, 1)
	s.WriteWord(ps, 2, 2)
	s.DiscardRange(word.Addr(ps), word.Addr(2*ps))
	if got := s.ReadWord(0); got != 1 {
		t.Fatal("page outside range must survive")
	}
}

func TestPageLSNFallsBackToDisk(t *testing.T) {
	s, _, _ := newStore(0)
	s.WriteWord(0, 1, 11)
	s.FlushPage(0)
	s.Crash()
	if s.PageLSN(0) != 11 {
		t.Fatalf("PageLSN = %d, want disk LSN 11", s.PageLSN(0))
	}
}

func TestFlushAllCleansEverything(t *testing.T) {
	s, disk, _ := newStore(0)
	for i := 0; i < 5; i++ {
		s.WriteWord(word.Addr(i*ps), uint64(i), word.LSN(i+1))
	}
	s.FlushAll()
	if len(s.DirtyPages()) != 0 {
		t.Fatal("FlushAll must clean all pages")
	}
	for id := word.PageID(0); id < 5; id++ {
		if !hasPage(disk, id) {
			t.Fatalf("page %d never reached the disk", id)
		}
	}
}

func TestCacheRespectsCapacity(t *testing.T) {
	s, _, _ := newStore(4)
	for i := 0; i < 32; i++ {
		s.WriteWord(word.Addr(i*ps), uint64(i), word.LSN(i+1))
	}
	if s.nres > 4 {
		t.Fatalf("cache holds %d pages, cap 4", s.nres)
	}
	// All data still readable through fetch.
	for i := 0; i < 32; i++ {
		if got := s.ReadWord(word.Addr(i * ps)); got != uint64(i) {
			t.Fatalf("page %d lost: got %d", i, got)
		}
	}
}

// TestResidentPagesInIDOrder: the page table is indexed by page id, so
// walking it yields resident pages in ascending order whatever order they
// became resident in, with no sort — after misses that grow the table,
// a discard and evictions alike.
func TestResidentPagesInIDOrder(t *testing.T) {
	s, _, _ := newStore(0)
	for _, id := range []int{9, 2, 30, 5, 0, 17} {
		s.ReadWord(word.Addr(id * ps))
	}
	if got, want := s.ResidentPages(), []word.PageID{0, 2, 5, 9, 17, 30}; !slices.Equal(got, want) {
		t.Fatalf("resident = %v, want %v", got, want)
	}
	s.DiscardRange(word.Addr(5*ps), word.Addr(18*ps))
	if got, want := s.ResidentPages(), []word.PageID{0, 2, 30}; !slices.Equal(got, want) {
		t.Fatalf("after discard resident = %v, want %v", got, want)
	}
	if s.nres != 3 {
		t.Fatalf("resident count %d, want 3", s.nres)
	}

	c, _, _ := newStore(3)
	for _, id := range []int{40, 7, 21, 3, 12} {
		c.ReadWord(word.Addr(id * ps))
	}
	got := c.ResidentPages()
	if len(got) != 3 || !slices.IsSorted(got) {
		t.Fatalf("bounded cache resident = %v, want 3 pages in id order", got)
	}
}

// TestHitsCountPageReReferences: a hit counts only when it sets a clock
// reference bit the replacement sweep has cleared — once per page per lap
// — not once per word read. An unbounded cache never sweeps, so it never
// counts one.
func TestHitsCountPageReReferences(t *testing.T) {
	u, _, _ := newStore(0)
	for i := 0; i < 100; i++ {
		u.ReadWord(word.Addr(i % 4 * ps))
	}
	if h := u.Met.Hits.Load(); h != 0 {
		t.Fatalf("unbounded cache counted %d hits, want 0", h)
	}

	s, _, _ := newStore(2)
	s.ReadWord(0)
	s.ReadWord(ps)
	s.ReadWord(2 * ps) // the sweep clears both bits and evicts page 0
	if h := s.Met.Hits.Load(); h != 0 {
		t.Fatalf("%d hits before any re-reference, want 0", h)
	}
	for i := 0; i < 10; i++ {
		s.ReadWord(word.Addr(ps + 8*(i%4)))
	}
	if h := s.Met.Hits.Load(); h != 1 {
		t.Fatalf("ten reads of a page whose bit the sweep cleared counted %d hits, want 1", h)
	}
}

func TestFlushRangeOnlyTouchesRange(t *testing.T) {
	s, disk, _ := newStore(0)
	s.WriteWord(0, 1, 1)
	s.WriteWord(ps, 2, 2)
	s.WriteWord(2*ps, 3, 3)
	n := s.FlushRange(word.Addr(ps), word.Addr(2*ps))
	if n != 1 {
		t.Fatalf("flushed %d pages, want 1", n)
	}
	if hasPage(disk, 0) || !hasPage(disk, 1) || hasPage(disk, 2) {
		t.Fatal("wrong pages flushed")
	}
}

// TestOweLoggedSkipsUnlogged: a checkpoint's share of write-back is owed,
// not written — only pages with a logged write join — and a drain writes
// exactly those.
func TestOweLoggedSkipsUnlogged(t *testing.T) {
	s, disk, _ := newStore(0)
	s.WriteWord(0, 1, 10)
	s.WriteWord(ps, 2, 20)
	s.FlushPage(1)
	s.WriteWord(2*ps, 3, word.NilLSN) // unlogged dirty: never owed
	if n := s.OweLogged(); n != 1 || s.Owed() != 1 {
		t.Fatalf("owed %d (%d in the set), want 1 (only the logged dirty page)", n, s.Owed())
	}
	if hasPage(disk, 0) {
		t.Fatal("owing a page wrote it")
	}
	if n := s.DrainCheckpoints(); n != 1 || s.Owed() != 0 {
		t.Fatalf("drain wrote %d, %d still owed; want 1 and 0", n, s.Owed())
	}
	if !hasPage(disk, 0) || hasPage(disk, 2) {
		t.Fatal("wrong pages cleaned")
	}
}

func TestFlushRangeSkipsClean(t *testing.T) {
	s, _, _ := newStore(0)
	s.WriteWord(0, 1, 1)
	s.FlushPage(0)
	if n := s.FlushRange(0, word.Addr(ps)); n != 0 {
		t.Fatalf("clean page reflushed: %d", n)
	}
}

// walCheckDisk returns a Disk that fails the test if a page reaches its
// backing ahead of its log record — the write-ahead rule, checked where it
// matters. A slot carries its page LSN at bytes 8..16 (storage.Disk's
// layout).
func walCheckDisk(t *testing.T, log *wal.Manager) *storage.Disk {
	disk, err := storage.OpenDisk(&walCheckBacking{storage.NewMemBacking(), t, log}, ps)
	if err != nil {
		t.Fatal(err)
	}
	return disk
}

type walCheckBacking struct {
	storage.Backing
	t   *testing.T
	log *wal.Manager
}

func (b *walCheckBacking) Open(name string, truncate bool) (storage.File, error) {
	f, err := b.Backing.Open(name, truncate)
	return walCheckFile{f, b}, err
}

type walCheckFile struct {
	storage.File
	b *walCheckBacking
}

func (f walCheckFile) WriteAt(p []byte, off int64) (int, error) {
	if lsn := word.LSN(binary.LittleEndian.Uint64(p[8:])); lsn != word.NilLSN && !f.b.log.IsStable(lsn) {
		f.b.t.Errorf("slot at %d written with page LSN %d, stable LSN %d", off, lsn, f.b.log.StableLSN())
	}
	return f.File.WriteAt(p, off)
}

// logged writes w at addr under a freshly appended (volatile) record.
func logged(s *Store, log *wal.Manager, addr word.Addr, w uint64) {
	s.WriteWord(addr, w, log.Append(wal.CommitRec{}))
}

// TestEvictionPrefersStableVictim: the clock passes over a dirty page whose
// last record is still volatile, as it would over a pinned one, while any
// other victim exists — so making room does not force the log.
func TestEvictionPrefersStableVictim(t *testing.T) {
	log := wal.NewManager(storage.NewLog(0))
	disk := walCheckDisk(t, log)
	s := New(Config{PageSize: ps, CachePages: 3}, disk, log)
	logged(s, log, 0*ps, 10) // page 0: dirty, unstable — first under the hand
	logged(s, log, 1*ps, 11) // page 1: dirty, unstable
	s.ReadWord(2 * ps)       // page 2: clean
	s.ReadWord(3 * ps)       // needs room
	st := &s.Met
	if st.LogForces.Load() != 0 || log.Device().Stats().Forces != 0 {
		t.Fatalf("making room forced the log (%d constraint forces) with a clean victim in the cache", st.LogForces.Load())
	}
	if st.Evictions.Load() != 1 || st.Flushes.Load() != 0 || hasPage(disk, 0) || hasPage(disk, 1) {
		t.Fatalf("evictions=%d flushes=%d: the clean page was not the victim", st.Evictions.Load(), st.Flushes.Load())
	}
	if got := s.ReadWord(0); got != 10 {
		t.Fatalf("unstable page lost its contents: %d", got)
	}
	// Once a commit's force has made them stable they are ordinary victims.
	log.ForceAll()
	forces := log.Device().Stats().Forces
	s.ReadWord(4 * ps)
	s.ReadWord(5 * ps)
	if st := &s.Met; st.LogForces.Load() != 0 || st.Flushes.Load() == 0 || log.Device().Stats().Forces != forces {
		t.Fatalf("after the force: constraint forces=%d flushes=%d", st.LogForces.Load(), st.Flushes.Load())
	}
}

// TestEvictionForcesWhenEveryVictimIsUnstable: when a full sweep finds
// nothing else, the page goes — after exactly one log force, so the
// write-ahead rule holds (walCheckDisk) and the same force covers the rest.
func TestEvictionForcesWhenEveryVictimIsUnstable(t *testing.T) {
	log := wal.NewManager(storage.NewLog(0))
	disk := walCheckDisk(t, log)
	s := New(Config{PageSize: ps, CachePages: 3}, disk, log)
	for p := 0; p < 3; p++ {
		logged(s, log, word.Addr(p*ps), uint64(20+p))
	}
	s.ReadWord(3 * ps)
	s.ReadWord(4 * ps)
	st := &s.Met
	if st.LogForces.Load() != 1 || log.Device().Stats().Forces != 1 {
		t.Fatalf("constraint forces=%d device forces=%d, want one force for the whole tail", st.LogForces.Load(), log.Device().Stats().Forces)
	}
	if st.Evictions.Load() != 2 || st.Flushes.Load() != 2 {
		t.Fatalf("evictions=%d flushes=%d, want 2 and 2", st.Evictions.Load(), st.Flushes.Load())
	}
	for p := 0; p < 3; p++ {
		if got := s.ReadWord(word.Addr(p * ps)); got != uint64(20+p) {
			t.Fatalf("page %d holds %d after eviction and refetch", p, got)
		}
	}
}

// hasPage reports whether the page was ever written to disk (without
// counting as a device read).
func hasPage(d *storage.Disk, id word.PageID) bool {
	return d.PageLSN(id) != word.NilLSN
}

// TestAllocsPerMissOverFilestore pins what a page miss costs over the real
// file backing: the vm adopts the buffer ReadPage preads into, so a miss
// allocates that buffer and the page header and nothing else — no second
// cache's frame and no copy out of it.
func TestAllocsPerMissOverFilestore(t *testing.T) {
	fs, err := filestore.Open(t.TempDir(), filestore.Options{PageSize: ps})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	const pages, cache = 64, 16
	for i := range pages {
		fs.Disk.WritePage(word.PageID(i), make([]byte, ps), word.LSN(i+1))
	}
	s := New(Config{PageSize: ps, CachePages: cache}, fs.Disk, wal.NewManager(fs.Log))
	next := 0
	miss := func() { // a sweep four times the cache: every read misses
		s.ReadWord(word.PageID(next % pages).Base(ps))
		next++
	}
	for range pages {
		miss()
	}
	fetches := s.Met.Fetches.Load()
	const runs = 400
	n := testing.AllocsPerRun(runs, miss)
	if got := s.Met.Fetches.Load() - fetches; got != runs+1 {
		t.Fatalf("%d fetches in %d reads: the sweep did not miss every time", got, runs+1)
	}
	if n > 2 {
		t.Errorf("%v allocations per vm miss over filestore, want ≤ 2 (the pread buffer and the page)", n)
	}
}

// TestUnprotectRangeLeavesOthersArmed: UnprotectRange disarms the pages
// whose base lies in the range and no other.
func TestUnprotectRangeLeavesOthersArmed(t *testing.T) {
	s, _, _ := newStore(0)
	for _, id := range []word.PageID{1, 2, 4, 9} {
		s.Protect(id)
	}
	s.UnprotectRange(word.Addr(ps), word.Addr(4*ps))
	for id, want := range map[word.PageID]bool{1: false, 2: false, 4: true, 9: true} {
		if got := s.Protected(id); got != want {
			t.Errorf("page %d protected = %v, want %v", id, got, want)
		}
	}
}

// TestFlushAllForcesOnce: a flush pass over pages whose records are all
// volatile forces the log once, to the highest of them, not once per page,
// then writes the consecutive pages as one run under one end-write record.
func TestFlushAllForcesOnce(t *testing.T) {
	log := wal.NewManager(storage.NewLog(0))
	disk := walCheckDisk(t, log)
	s := New(Config{PageSize: ps}, disk, log)
	for p := 0; p < 5; p++ {
		logged(s, log, word.Addr(p*ps), uint64(p))
	}
	top := s.PageLSN(4)
	s.FlushAll()
	if got := s.Met.LogForces.Load(); got != 1 {
		t.Fatalf("wal_constraint_forces_total = %d, want 1", got)
	}
	if got := log.Device().Stats().Forces; got != 1 {
		t.Fatalf("device forces = %d, want 1", got)
	}
	var runs []wal.EndWriteRec
	log.ForceAll()
	log.Scan(1, false, func(_ word.LSN, r wal.Record) bool {
		if ew, ok := r.(wal.EndWriteRec); ok {
			runs = append(runs, ew)
		}
		return true
	})
	if want := (wal.EndWriteRec{Page: 0, PageLSN: top, Count: 5}); len(runs) != 1 || runs[0] != want {
		t.Fatalf("end-writes %+v, want one %+v", runs, want)
	}
	for id := word.PageID(0); id < 5; id++ {
		if lsn := disk.PageLSN(id); lsn != top {
			t.Errorf("page %d written at LSN %d, want the run's %d", id, lsn, top)
		}
	}
}

// pinCount is a Clean pin that records each run it was asked to pin.
type pinCount struct{ runs [][2]int }

func (c *pinCount) pin(first word.PageID, n int) func() {
	c.runs = append(c.runs, [2]int{int(first), n})
	return func() {}
}

// TestCleanNeverForces: the cleaner writes only owed pages whose records
// are stable — so it never forces — in runs; the pages whose records are
// still volatile stay owed until a commit's force makes them stable.
func TestCleanNeverForces(t *testing.T) {
	log := wal.NewManager(storage.NewLog(0))
	disk := walCheckDisk(t, log)
	s := New(Config{PageSize: ps}, disk, log)
	for p := 0; p < 4; p++ {
		logged(s, log, word.Addr(p*ps), uint64(p))
		if p == 1 {
			log.ForceAll() // pages 0 and 1 are stable, 2 and 3 are not
		}
	}
	if n := s.Owe(0, word.Addr(4*ps)); n != 4 {
		t.Fatalf("owed %d pages, want 4", n)
	}
	var pc pinCount
	if n := s.Clean(32, pc.pin); n != 2 {
		t.Fatalf("first quantum wrote %d pages, want the 2 stable ones", n)
	}
	if len(pc.runs) != 1 || pc.runs[0] != [2]int{0, 2} {
		t.Fatalf("pinned runs %v, want one of pages 0..1", pc.runs)
	}
	if s.Met.LogForces.Load() != 0 || log.Device().Stats().Forces != 1 {
		t.Fatal("the cleaner forced the log")
	}
	if s.Owed() != 2 || hasPage(disk, 2) || hasPage(disk, 3) {
		t.Fatalf("%d owed; pages with volatile records were written", s.Owed())
	}
	log.ForceAll() // a commit's force
	if n := s.Clean(32, pc.pin); n != 2 || s.Owed() != 0 {
		t.Fatalf("second quantum wrote %d pages, %d still owed; want 2 and 0", n, s.Owed())
	}
	if s.Met.Cleaned.Load() != 4 || s.Met.StopWrites.Load() != 0 {
		t.Fatalf("cleaned %d, stop writes %d; want 4 and 0", s.Met.Cleaned.Load(), s.Met.StopWrites.Load())
	}
	if len(s.DirtyPages()) != 0 {
		t.Fatal("cleaned pages are still dirty")
	}
}

// TestCleanSnapshotThenWrite: the cleaner writes a snapshot with no lock
// held. A write between the snapshot and the landing leaves its page dirty
// from that write on, the disk holds the snapshot, and a page on its way to
// disk is not evicted meanwhile.
func TestCleanSnapshotThenWrite(t *testing.T) {
	s, disk, log := newStore(2)
	logged(s, log, 0, 7)
	logged(s, log, ps, 8)
	log.ForceAll()
	s.Owe(0, word.Addr(2*ps))
	var later word.LSN
	s.Clean(32, func(first word.PageID, n int) func() {
		return func() { // the stripes open: a writer and a miss get in
			later = log.Append(wal.CommitRec{})
			s.WriteWord(8, 9, later)
			s.ReadWord(5 * ps) // needs room; both pages are being written
			if got := s.ResidentPages(); !slices.Contains(got, 0) || !slices.Contains(got, 1) {
				t.Errorf("a page was evicted on its way to disk: resident %v", got)
			}
		}
	})
	if data, _, _ := disk.ReadPage(0); word.GetWord(data, 8) != 0 || word.GetWord(data, 0) != 7 {
		t.Fatal("the disk does not hold the snapshot")
	}
	dp := s.DirtyPages()
	if len(dp) != 1 || dp[0].Page != 0 || dp[0].RecLSN != later {
		t.Fatalf("dirty pages %+v, want page 0 from the later write on", dp)
	}
}

// TestDiscardedOwedPageNeverWritten: a page owed and then discarded owes
// nothing — dead contents never reach its slot — and a page made again in
// the range is not owed until something owes it.
func TestDiscardedOwedPageNeverWritten(t *testing.T) {
	s, disk, log := newStore(0)
	logged(s, log, ps, 3)
	log.ForceAll()
	s.Owe(word.Addr(ps), word.Addr(2*ps))
	s.DiscardRange(word.Addr(ps), word.Addr(2*ps))
	if s.Owed() != 0 {
		t.Fatalf("%d pages still owed after the discard", s.Owed())
	}
	s.WriteWord(ps+8, 4, word.NilLSN) // the page made again, zero-filled
	var pc pinCount
	if n := s.Clean(32, pc.pin) + s.DrainSpaces() + s.DrainCheckpoints(); n != 0 || hasPage(disk, 1) {
		t.Fatalf("wrote %d pages of a discarded range", n)
	}
}
