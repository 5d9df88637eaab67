// Package vm simulates the virtual-memory platform the paper's design
// requires (§2.3): a one-level store in which main memory is a cache of
// pages over a disk whose backing store survives crashes, with the
// operating-system primitives the algorithms depend on — page protection
// with a trap handler (the Ellis read barrier, §3.2.1) and control over when
// pages reach the backing store.
//
// There are no page pins. The write-ahead constraint (§2.2.3) is enforced at
// flush time: a dirty page whose page LSN — or, for unlogged writes, the
// log's end when they were made — is beyond the stable log forces the log
// before it is written, which is equivalent to the paper's "unpin after
// the redo record is in the stable log" — and replacement prefers any other
// victim to such a page, so eviction does not normally force. Every write
// back spools an end-write record (§2.2.4), from which recovery prunes the
// dirty page set; a fetch logs nothing (DESIGN.md §4.3).
package vm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"stableheap/internal/obs"
	"stableheap/internal/storage"
	"stableheap/internal/wal"
	"stableheap/internal/word"
)

// TrapHandler is invoked when the mutator touches a protected page (the
// read-barrier trap). The handler must leave the page unprotected.
type TrapHandler func(pg word.PageID)

// Metrics counts one-level-store activity. Hits and misses (Fetches +
// FreshPages) count pages, not words: a miss makes a page resident with its
// clock reference bit set, and a hit is a lookup that finds a resident page
// whose bit the replacement sweep has cleared since — at most one per page
// per lap of the clock. Their ratio is what cache-size tuning optimizes;
// without a CachePages bound the sweep never runs and Hits stays 0. The
// counters are atomic, so reading them takes no lock: a metrics reader
// never waits on an owned store.
type Metrics struct {
	Traps      obs.Counter `obs:"gc_barrier_traps_total"`      // read-barrier traps taken
	Hits       obs.Counter `obs:"cache_hits_total"`            // page re-references: lookups that set a cleared clock bit
	Fetches    obs.Counter `obs:"cache_fetches_total"`         // pages read from disk into the cache
	Flushes    obs.Counter `obs:"cache_flushes_total"`         // dirty pages written to disk
	Evictions  obs.Counter `obs:"cache_evictions_total"`       // pages dropped from the cache by replacement
	LogForces  obs.Counter `obs:"wal_constraint_forces_total"` // log forces triggered by the WAL flush constraint
	FreshPages obs.Counter `obs:"cache_fresh_pages_total"`     // pages materialized zero-filled (never on disk)
}

// Config parameterizes the store.
type Config struct {
	// PageSize in bytes; must be a multiple of the word size.
	PageSize int
	// CachePages caps the number of resident pages; 0 means unlimited
	// (no replacement, useful for tests and for pause measurements that
	// should not be polluted by paging).
	CachePages int
}

type page struct {
	id     word.PageID
	data   []byte
	lsn    word.LSN // LSN of the last logged modification applied
	recLSN word.LSN // earliest LSN maybe not on disk; NilLSN if clean
	// ulsn is the log's last record at the last unlogged write: unlogged
	// state (a forwarding word, an abort's cleared object) can overwrite
	// logged state, so the records before it must reach disk first.
	ulsn  word.LSN
	dirty bool // any modification (logged or not) since last flush
	// ref is the clock reference bit; atomic because lock-free cache hits
	// set it while holding only the store's read lock.
	ref atomic.Bool
}

// touch is a cache hit on p: it sets the clock reference bit and counts a
// page re-reference when the bit was clear. The common case, a page already
// referenced in this lap, is one atomic load and no write.
func (s *Store) touch(p *page) {
	if !p.ref.Load() && p.ref.CompareAndSwap(false, true) {
		s.Met.Hits.Inc()
	}
}

// Store is the simulated one-level store.
//
// The page table is dense: pages is indexed by page id (the heap's address
// space starts at 0 and is bounded, so the table is as long as the highest
// page ever made resident and grows on that first residency) and nres counts
// the non-nil entries. A hit is a bounds check and a slice load — no hash —
// and walking the table visits resident pages in ascending id order, which
// is the order every flush and DiscardRange needs, with no sort.
//
// Concurrency: the store carries an internal RWMutex. Resident-page hits on
// the byte/word access paths run under the read lock: they only load from
// the table, and their one write to shared state is the page's clock bit,
// stored (by compare-and-swap) only when it is clear. The heap's sharded
// action latch serializes same-page writers above this layer, and object
// locks serialize same-object access. Misses, eviction, flushing and every
// structural operation — installing or dropping a table entry, growing the
// table — take the write lock, so a read-locked hit never sees the table
// move under it. Page protection (Protect/Unprotect/EnsureAccessible) is
// NOT covered by the mutex: it is mutated only by the collector while it
// holds the heap's stop latch exclusively, which already orders it against
// all shared-path readers.
//
// Ownership: every caller holds the heap's stop latch (shared or
// exclusive) or its gate (a concurrent scan quantum), or runs before the
// heap is shared. So the goroutine that stops the heap is the only caller
// until it resumes it, and it owns the store for that section (Own …
// Release): no method takes mu meanwhile. owned changes only with mu, the
// latch and the gate all held, so every reader is ordered after the change
// by the latch or gate it holds. Met is atomic and needs neither.
type Store struct {
	cfg   Config
	mu    sync.RWMutex
	owned bool // mu is held by the heap's stopper (Own)
	disk  *storage.Disk
	log   *wal.Manager
	pages []*page // indexed by page id; nil when not resident
	nres  int     // resident pages: the non-nil entries of pages
	// prot is the set of protected pages; protection is independent of
	// residency (protecting a page must not fault it in).
	prot map[word.PageID]struct{}
	// ring holds resident page ids in insertion order for the clock
	// replacement sweep; hand indexes the next candidate.
	ring []word.PageID
	hand int
	// gone marks, by page id, the pages DiscardRange dropped: until a page
	// is next written back, its slot on disk holds dead contents, so a miss
	// makes it resident zero-filled at the slot's page LSN instead of
	// reading it.
	gone []bool
	trap TrapHandler
	// inTrap guards against recursive traps (a handler touching its own
	// protected page would loop).
	inTrap bool
	Met    Metrics
}

// New creates a store over disk, spooling end-write records to log (if
// not nil).
func New(cfg Config, disk *storage.Disk, log *wal.Manager) *Store {
	if cfg.PageSize <= 0 || cfg.PageSize%word.WordSize != 0 {
		panic(fmt.Sprintf("vm: invalid page size %d", cfg.PageSize))
	}
	return &Store{
		cfg:  cfg,
		disk: disk,
		log:  log,
		prot: make(map[word.PageID]struct{}),
	}
}

// PageSize returns the configured page size.
func (s *Store) PageSize() int { return s.cfg.PageSize }

// Disk returns the backing store.
func (s *Store) Disk() *storage.Disk { return s.disk }

// SetTrapHandler installs the read-barrier trap handler.
func (s *Store) SetTrapHandler(h TrapHandler) { s.trap = h }

// Own takes the store for the heap's stopper: it takes mu, waiting out any
// call still in flight, and until Release no method takes mu again. The
// caller holds the heap's stop latch and gate exclusively (see Store).
func (s *Store) Own() {
	s.mu.Lock()
	s.owned = true
}

// Release ends Own.
func (s *Store) Release() {
	s.owned = false
	s.mu.Unlock()
}

// lock and unlock take the write lock unless the store is owned.
func (s *Store) lock() {
	if !s.owned {
		s.mu.Lock()
	}
}

func (s *Store) unlock() {
	if !s.owned {
		s.mu.Unlock()
	}
}

// lookup returns the resident page id, or nil. Either lock is held, or the
// store is owned (which counts as the write lock here and below).
func (s *Store) lookup(id word.PageID) *page {
	if uint64(id) < uint64(len(s.pages)) {
		return s.pages[id]
	}
	return nil
}

// install enters p in the table, growing it to cover p's id. The write lock
// is held.
func (s *Store) install(p *page) {
	if n := uint64(p.id) + 1; n > uint64(len(s.pages)) {
		s.pages = append(s.pages, make([]*page, max(n, 2*uint64(len(s.pages)))-uint64(len(s.pages)))...)
	}
	s.pages[p.id] = p
	s.nres++
}

// drop removes the resident page id from the table. The write lock is held.
func (s *Store) drop(id word.PageID) {
	s.pages[id] = nil
	s.nres--
}

// resident returns the cached page, fetching it from disk (or materializing
// it zero-filled) if needed, possibly evicting another page first. A
// fetched page adopts the buffer ReadPage returned, which the caller owns
// (*storage.Disk), so a miss copies the page once. The store's write
// lock is held.
func (s *Store) resident(id word.PageID) *page {
	if p := s.lookup(id); p != nil {
		s.touch(p)
		return p
	}
	s.makeRoom()
	p := &page{id: id}
	p.ref.Store(true)
	if s.discarded(id) {
		// Never LSN 0: the slot keeps its page LSN across the next write
		// back, or recovery would take the page for a lost write.
		p.data, p.lsn = make([]byte, s.cfg.PageSize), s.disk.PageLSN(id)
		s.Met.FreshPages.Inc()
	} else if data, lsn, ok := s.disk.ReadPage(id); ok {
		p.data, p.lsn = data, lsn
		s.Met.Fetches.Inc()
	} else {
		p.data = make([]byte, s.cfg.PageSize)
		s.Met.FreshPages.Inc()
	}
	s.install(p)
	s.ring = append(s.ring, id)
	return p
}

// makeRoom evicts one page if the cache is at capacity. Protected pages
// are skipped (a protected page's content is owed a scan;
// evicting it would lose the protection state), and so — for two laps of
// the clock, one to clear reference bits and one to look — is a dirty page
// whose last record is not yet in the stable log: writing it back means a
// log force under the store's write lock, when its transaction's commit is
// about to make it stable for nothing. Only when nothing else can go does
// the sweep take such a page; flushPage keeps the WAL rule either way.
func (s *Store) makeRoom() {
	if s.cfg.CachePages <= 0 || s.nres < s.cfg.CachePages {
		return
	}
	// Clock sweep: give each referenced page a second chance. Bound the
	// sweep so a fully protected cache degrades to over-commit rather than
	// spinning forever.
	laps := 2 * len(s.ring)
	for tries := 0; tries < 2*laps+2; tries++ {
		if len(s.ring) == 0 {
			return
		}
		s.hand %= len(s.ring)
		id := s.ring[s.hand]
		p := s.lookup(id)
		if p == nil {
			s.ring = append(s.ring[:s.hand], s.ring[s.hand+1:]...)
			continue
		}
		_, prot := s.prot[id]
		switch {
		case prot:
		case p.ref.Load():
			p.ref.Store(false)
		case tries < laps && p.dirty && s.unstable(p):
		default:
			if p.dirty {
				s.flushPage(p)
			}
			s.drop(id)
			s.ring = append(s.ring[:s.hand], s.ring[s.hand+1:]...)
			s.Met.Evictions.Inc()
			return
		}
		s.hand++
	}
}

// walLSN is the last record the stable log must hold before the page is
// written: every record its contents reflect, logged or not.
func (p *page) walLSN() word.LSN { return max(p.lsn, p.ulsn) }

// unstable reports whether the records the page reflects are still in the
// volatile log, so that writing the page back needs a log force first.
func (s *Store) unstable(p *page) bool {
	return s.log != nil && p.walLSN() != word.NilLSN && !s.log.IsStable(p.walLSN())
}

// flushPage writes a dirty page to disk, honoring the WAL constraint and
// logging the end-write record.
func (s *Store) flushPage(p *page) {
	if !p.dirty {
		return
	}
	if s.unstable(p) {
		// WAL: the redo record for the page's last modification must be
		// in the stable log before the page reaches disk.
		s.log.Force(p.walLSN())
		s.Met.LogForces.Inc()
	}
	s.disk.WritePage(p.id, p.data, p.lsn)
	if s.discarded(p.id) {
		s.gone[p.id] = false
	}
	p.dirty = false
	p.recLSN = word.NilLSN
	s.Met.Flushes.Inc()
	if s.log != nil {
		s.log.Append(wal.EndWriteRec{Page: p.id, PageLSN: p.lsn})
	}
}

// FlushPage flushes the page if it is resident and dirty.
func (s *Store) FlushPage(id word.PageID) {
	s.lock()
	defer s.unlock()
	if p := s.lookup(id); p != nil {
		s.flushPage(p)
	}
}

// FlushRange writes back every dirty resident page whose base lies in
// [lo, hi). The collector calls it at collection end so the surviving
// to-space is durable before the from-space is freed — after that, redo
// never needs to read a freed space (see gc's maybeFinish).
func (s *Store) FlushRange(lo, hi word.Addr) int {
	s.lock()
	defer s.unlock()
	n := 0
	for _, p := range s.span(lo, hi) {
		if p != nil && p.dirty {
			s.flushPage(p)
			n++
		}
	}
	return n
}

// span returns the part of the page table whose pages have their base in
// [lo, hi), in id order (entries may be nil). Either lock is held.
func (s *Store) span(lo, hi word.Addr) []*page {
	ps := uint64(s.cfg.PageSize)
	n := uint64(len(s.pages))
	first := min((uint64(lo)+ps-1)/ps, n)
	end := min((uint64(hi)+ps-1)/ps, n)
	if end < first {
		end = first
	}
	return s.pages[first:end]
}

// FlushOlderThan writes back every dirty resident page whose
// recLSN lies below horizon: the checkpoint-driven page cleaner that keeps
// the redo window bounded. Returns the number of pages written.
func (s *Store) FlushOlderThan(horizon word.LSN) int {
	s.lock()
	defer s.unlock()
	n := 0
	for _, p := range s.pages {
		if p == nil || !p.dirty || p.recLSN == word.NilLSN || p.recLSN >= horizon {
			continue
		}
		s.flushPage(p)
		n++
	}
	return n
}

// FlushAll flushes every dirty resident page (clean shutdown; also used by
// tests and by the crash injector to model arbitrary flush orders).
func (s *Store) FlushAll() {
	s.lock()
	defer s.unlock()
	for _, p := range s.pages {
		if p != nil {
			s.flushPage(p)
		}
	}
}

// ResidentPages returns the ids of cached pages in ascending order.
func (s *Store) ResidentPages() []word.PageID {
	s.lock()
	defer s.unlock()
	ids := make([]word.PageID, 0, s.nres)
	for _, p := range s.pages {
		if p != nil {
			ids = append(ids, p.id)
		}
	}
	return ids
}

// DirtyPages returns the dirty page table: every resident page with logged
// modifications not yet on disk, with its recLSN. Pages dirtied only by
// unlogged (volatile-object) writes are excluded — redo never needs them.
func (s *Store) DirtyPages() []wal.DirtyPage {
	s.lock()
	defer s.unlock()
	var out []wal.DirtyPage
	for _, p := range s.pages {
		if p != nil && p.dirty && p.recLSN != word.NilLSN {
			out = append(out, wal.DirtyPage{Page: p.id, RecLSN: p.recLSN})
		}
	}
	return out
}

// Crash models a system failure: main memory is lost. Cached pages vanish;
// the disk and the stable log survive (the log device is crashed
// separately by the owner).
func (s *Store) Crash() {
	s.lock()
	defer s.unlock()
	clear(s.pages)
	s.gone = nil
	s.nres = 0
	s.prot = make(map[word.PageID]struct{})
	s.ring = nil
	s.hand = 0
	s.inTrap = false
}

// Protect arms the read barrier on the page: the next barriered access
// traps. Protection is pure page-table state; it neither faults the page
// in nor touches its contents.
func (s *Store) Protect(id word.PageID) { s.prot[id] = struct{}{} }

// Unprotect disarms the read barrier on the page.
func (s *Store) Unprotect(id word.PageID) { delete(s.prot, id) }

// Protected reports whether the page currently traps.
func (s *Store) Protected(id word.PageID) bool {
	_, ok := s.prot[id]
	return ok
}

// pageRange iterates the pages overlapped by [addr, addr+n).
func (s *Store) pageRange(addr word.Addr, n int, fn func(id word.PageID)) {
	if n <= 0 {
		return
	}
	first := addr.Page(s.cfg.PageSize)
	last := (addr + word.Addr(n) - 1).Page(s.cfg.PageSize)
	for id := first; id <= last; id++ {
		fn(id)
	}
}

// EnsureAccessible is the read barrier: it fires the trap handler for every
// protected page in [addr, addr+n). The mutator-facing layers call it
// before touching memory; the collector bypasses it.
func (s *Store) EnsureAccessible(addr word.Addr, n int) {
	s.pageRange(addr, n, func(id word.PageID) {
		if _, prot := s.prot[id]; !prot {
			return
		}
		if s.trap == nil {
			panic(fmt.Sprintf("vm: access to protected page %d with no trap handler", id))
		}
		if s.inTrap {
			panic(fmt.Sprintf("vm: recursive trap on page %d", id))
		}
		s.Met.Traps.Inc()
		s.inTrap = true
		s.trap(id)
		s.inTrap = false
		if _, still := s.prot[id]; still {
			panic(fmt.Sprintf("vm: trap handler left page %d protected", id))
		}
	})
}

// ReadBytes copies n bytes starting at addr. It does not fire the read
// barrier; callers acting for the mutator run EnsureAccessible first.
func (s *Store) ReadBytes(addr word.Addr, n int) []byte {
	out := make([]byte, n)
	s.ReadInto(addr, out)
	return out
}

// ReadInto is ReadBytes into a buffer the caller owns (len(out) bytes).
func (s *Store) ReadInto(addr word.Addr, out []byte) {
	n := len(out)
	if n == 0 {
		return
	}
	id := addr.Page(s.cfg.PageSize)
	if !s.owned && (addr+word.Addr(n)-1).Page(s.cfg.PageSize) == id {
		// Fast path: a single resident page is read under the read lock.
		// Byte-range exclusion is the caller's job (object locks).
		s.mu.RLock()
		if p := s.lookup(id); p != nil {
			pOff := int(addr) - int(id.Base(s.cfg.PageSize))
			copy(out, p.data[pOff:pOff+n])
			s.touch(p)
			s.mu.RUnlock()
			return
		}
		s.mu.RUnlock()
	}
	s.lock()
	defer s.unlock()
	off := 0
	for off < n {
		id := (addr + word.Addr(off)).Page(s.cfg.PageSize)
		p := s.resident(id)
		pOff := int(addr+word.Addr(off)) - int(id.Base(s.cfg.PageSize))
		c := copy(out[off:], p.data[pOff:])
		off += c
	}
}

// WriteBytes stores data at addr. lsn is the log record covering the
// modification: word.NilLSN marks an unlogged (volatile-object) write,
// which dirties the page without advancing its page LSN.
//
// Concurrent writers to the SAME page must be serialized by the caller
// (the heap's sharded action latch does this): the page LSN must track the
// latest applied record and recLSN the earliest unflushed one, which only
// holds if append order and apply order agree per page.
func (s *Store) WriteBytes(addr word.Addr, data []byte, lsn word.LSN) {
	n := len(data)
	if n <= 0 {
		return
	}
	id := addr.Page(s.cfg.PageSize)
	if !s.owned && (addr+word.Addr(n)-1).Page(s.cfg.PageSize) == id {
		// Fast path: a single resident page is written under the read
		// lock; the per-page latch above excludes same-page writers.
		s.mu.RLock()
		if p := s.lookup(id); p != nil {
			pOff := int(addr) - int(id.Base(s.cfg.PageSize))
			copy(p.data[pOff:], data)
			s.markWritten(p, lsn)
			s.touch(p)
			s.mu.RUnlock()
			return
		}
		s.mu.RUnlock()
	}
	s.lock()
	defer s.unlock()
	off := 0
	for off < n {
		id := (addr + word.Addr(off)).Page(s.cfg.PageSize)
		p := s.resident(id)
		pOff := int(addr+word.Addr(off)) - int(id.Base(s.cfg.PageSize))
		c := copy(p.data[pOff:], data[off:])
		off += c
		s.markWritten(p, lsn)
	}
}

// markWritten updates a page's dirty/LSN bookkeeping for a write covered
// by lsn, or for an unlogged write (ulsn). recLSN keeps the MINIMUM
// unflushed LSN: a flush writes the page contents including every applied
// record, so redo must start no later than the earliest of them.
func (s *Store) markWritten(p *page, lsn word.LSN) {
	p.dirty = true
	if lsn == word.NilLSN {
		if s.log != nil {
			p.ulsn = s.log.EndLSN() - 1
		}
	} else {
		if p.recLSN == word.NilLSN || lsn < p.recLSN {
			p.recLSN = lsn
		}
		if lsn > p.lsn {
			p.lsn = lsn
		}
	}
}

// ReadWord loads the word at addr (no barrier).
func (s *Store) ReadWord(addr word.Addr) uint64 {
	id := addr.Page(s.cfg.PageSize)
	off := int(addr - id.Base(s.cfg.PageSize))
	if s.owned {
		return word.GetWord(s.resident(id).data, off)
	}
	s.mu.RLock()
	if p := s.lookup(id); p != nil {
		v := word.GetWord(p.data, off)
		s.touch(p)
		s.mu.RUnlock()
		return v
	}
	s.mu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	return word.GetWord(s.resident(id).data, off)
}

// WriteWord stores w at addr with the given covering LSN (no barrier).
func (s *Store) WriteWord(addr word.Addr, w uint64, lsn word.LSN) { s.SwapWord(addr, w, lsn) }

// SwapWord stores w at addr with the given covering LSN (no barrier) and
// returns the word it replaced: a read and a write for one page lookup. A
// word never straddles a page, so a resident page is written in place under
// the read lock, as WriteBytes' fast path does.
func (s *Store) SwapWord(addr word.Addr, w uint64, lsn word.LSN) uint64 {
	id := addr.Page(s.cfg.PageSize)
	off := int(addr - id.Base(s.cfg.PageSize))
	if s.owned {
		return s.swap(s.resident(id), off, w, lsn)
	}
	s.mu.RLock()
	if p := s.lookup(id); p != nil {
		old := s.swap(p, off, w, lsn)
		s.touch(p)
		s.mu.RUnlock()
		return old
	}
	s.mu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.swap(s.resident(id), off, w, lsn)
}

// swap is SwapWord on the resident page p, at byte offset off.
func (s *Store) swap(p *page, off int, w uint64, lsn word.LSN) uint64 {
	old := word.GetWord(p.data, off)
	word.PutWord(p.data, off, w)
	s.markWritten(p, lsn)
	return old
}

// zeros is the shared source of Zero's writes.
var zeros [4096]byte

// Zero clears n bytes at addr, covered by lsn as WriteBytes is, writing
// from a shared zero buffer one page piece at a time so that each piece
// takes the resident-page fast path.
func (s *Store) Zero(addr word.Addr, n int, lsn word.LSN) {
	ps := s.cfg.PageSize
	for n > 0 {
		c := min(n, ps-int(uint64(addr)%uint64(ps)), len(zeros))
		s.WriteBytes(addr, zeros[:c], lsn)
		addr += word.Addr(c)
		n -= c
	}
}

// PageLSN returns the resident page's LSN, or the disk page LSN if not
// resident (used by redo conditioning).
func (s *Store) PageLSN(id word.PageID) word.LSN {
	s.lock()
	defer s.unlock()
	if p := s.lookup(id); p != nil {
		return p.lsn
	}
	return s.disk.PageLSN(id)
}

// discarded reports whether the page's slot holds contents DiscardRange
// declared dead. Either lock is held.
func (s *Store) discarded(id word.PageID) bool {
	return uint64(id) < uint64(len(s.gone)) && s.gone[id]
}

// DiscardRange drops every resident page whose base falls in [lo, hi)
// without writing it back — the contents are dead (a freed from-space; the
// collector wrote the surviving to-space out first, so redo never reads a
// freed range) — and marks every page there gone, so the next touch of one
// reads nothing back from disk. The dropped pages' dirty entries are
// returned for inspection by tests.
func (s *Store) DiscardRange(lo, hi word.Addr) []wal.DirtyPage {
	s.lock()
	defer s.unlock()
	ps := uint64(s.cfg.PageSize)
	first, end := (uint64(lo)+ps-1)/ps, (uint64(hi)+ps-1)/ps
	if end > uint64(len(s.gone)) {
		s.gone = append(s.gone, make([]bool, end-uint64(len(s.gone)))...)
	}
	for id := first; id < end; id++ {
		s.gone[id] = true
	}
	var ghosts []wal.DirtyPage
	dropped := 0
	for _, p := range s.span(lo, hi) {
		if p == nil {
			continue
		}
		if p.dirty && p.recLSN != word.NilLSN {
			ghosts = append(ghosts, wal.DirtyPage{Page: p.id, RecLSN: p.recLSN})
		}
		s.drop(p.id)
		dropped++
	}
	if dropped > 0 {
		// One compaction pass over the clock ring: dropping page-by-page
		// would cost O(range × ring) — the minor-collection pause was
		// dominated by exactly that before the nursery resets got hot.
		out := s.ring[:0]
		hand := s.hand
		for i, id := range s.ring {
			if s.lookup(id) == nil {
				if s.hand > i {
					hand--
				}
				continue
			}
			out = append(out, id)
		}
		s.ring = out
		s.hand = hand
	}
	return ghosts
}
