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
//
// Write-back the heap needs but need not wait for is owed, not done: a
// finished collection's to-space (Owe) and the pages a checkpoint finds
// dirty (OweLogged) join the owed set, and the page cleaner (Clean) writes
// them in contiguous runs after a commit's force, once their records are
// stable, without stopping the heap. A flip drains what collections still
// owe (DrainSpaces), a checkpoint what the last checkpoint still owes
// (DrainCheckpoints), and a clean shutdown writes everything.
package vm

import (
	"fmt"
	"slices"
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
	Cleaned    obs.Counter `obs:"cache_cleaned_pages_total"`   // owed pages the cleaner wrote with the heap running
	StopWrites obs.Counter `obs:"cache_stop_writes_total"`     // pages written back while the heap was stopped (store owned)
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
	// owed says why the page is in the owed set — owedSpace (Owe),
	// owedCheckpoint (OweLogged), or both; 0 once it is written back,
	// evicted or dropped.
	owed uint8
	// writing: the cleaner's snapshot of the page is on its way to disk
	// with no lock held, so nobody else may write the page back or drop
	// it until the snapshot lands (Clean).
	writing bool
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
// exclusive), or runs before the heap is shared. So the goroutine that
// stops the heap is the only caller until it resumes it, and it owns the
// store for that section (Own … Release): no method takes mu meanwhile.
// owned changes only with mu and the latch held, so every reader is
// ordered after the change by the latch it holds. Met is atomic and needs
// neither.
type Store struct {
	cfg   Config
	mu    sync.RWMutex
	owned bool // mu is held by the heap's stopper (Own)
	disk  *storage.Disk
	log   *wal.Manager
	pages []*page // indexed by page id; nil when not resident
	nres  int     // resident pages: the non-nil entries of pages
	// prot marks, by page id, the protected pages; protection is
	// independent of residency (protecting a page must not fault it in).
	// Dense like gone, so arming or disarming a whole to-space is a slice
	// fill.
	prot []bool
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
	// debt lists the owed set in ascending page order. An entry whose page
	// is no longer owed (written, evicted, dropped) is skipped and removed
	// by the next pass over it: the page's owed flag is the truth, and
	// nowed counts the flags set, so a committer can ask for nothing
	// without a lock.
	debt  []word.PageID
	nowed atomic.Int64
	// nspace counts the pages owed for owedSpace, and ghosts holds the
	// dirty entries of the pages a discard dropped while it was nonzero —
	// a finished collection's freed from-space, still needed by any
	// recovery that replays that collection's copies into to-space pages
	// not yet on disk. DirtyPages lists them, so a checkpoint taken in
	// that window starts redo early enough to rebuild the from-space from
	// its intact slots; they go once the to-space debt is paid.
	nspace int
	ghosts []wal.DirtyPage
	// bufs gathers a run's page images for one device write under the
	// write lock; the cleaner, which writes with no lock held, snapshots
	// into snap and cbufs instead, under cleanMu — one cleaner at a time.
	bufs    [][]byte
	cleanMu sync.Mutex
	snap    []byte
	cbufs   [][]byte
	Met     Metrics
}

// maxRun bounds the pages one device write carries (64 KiB of the heap's
// default 1 KiB pages).
const maxRun = 64

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
// caller holds the heap's stop latch exclusively (see Store).
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
		switch {
		case s.Protected(id), p.writing:
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
	s.writeRun([]*page{p})
}

// writeRun writes the dirty pages of run, consecutive ids and every record
// they reflect stable, with one device write and one end-write record, and
// leaves them clean. The write lock is held (or the store owned), so no
// writer races the images: each page reflects every record up to the run's
// highest page LSN that touches it, which is the LSN the run is written
// and certified at (storage.Disk.WriteRun).
func (s *Store) writeRun(run []*page) {
	var lsn word.LSN
	s.bufs = s.bufs[:0]
	for _, p := range run {
		lsn = max(lsn, p.lsn)
		s.bufs = append(s.bufs, p.data)
	}
	s.disk.WriteRun(run[0].id, s.bufs, lsn)
	clear(s.bufs)
	for _, p := range run {
		p.dirty = false
		p.recLSN = word.NilLSN
		s.landed(p, lsn)
	}
	if s.owned {
		s.Met.StopWrites.Add(uint64(len(run)))
	}
	s.endWrite(run[0].id, len(run), lsn)
}

// landed books a page whose image at lsn reached disk: it is no longer
// owed, and no longer gone. The write lock is held.
func (s *Store) landed(p *page, lsn word.LSN) {
	p.lsn = lsn
	s.pay(p)
	if s.discarded(p.id) {
		s.gone[p.id] = false
	}
}

// endWrite counts n pages from first written at lsn and spools their
// end-write record: one per run.
func (s *Store) endWrite(first word.PageID, n int, lsn word.LSN) {
	s.Met.Flushes.Add(uint64(n))
	if s.log == nil {
		return
	}
	rec := wal.EndWriteRec{Page: first, PageLSN: lsn}
	if n > 1 {
		rec.Count = n
	}
	s.log.Append(rec)
}

// flushPass writes back the dirty pages of ps, in ascending page order: it
// forces the log once, to the highest record any of them reflects, if that
// is not yet stable, then writes them in runs of consecutive pages. The
// write lock is held. It returns the pages written.
func (s *Store) flushPass(ps []*page) int {
	var top word.LSN
	for _, p := range ps {
		top = max(top, p.walLSN())
	}
	if s.log != nil && top != word.NilLSN && !s.log.IsStable(top) {
		s.log.Force(top)
		s.Met.LogForces.Inc()
	}
	for i := 0; i < len(ps); {
		j := i + 1
		for j < len(ps) && j-i < maxRun && ps[j].id == ps[j-1].id+1 {
			j++
		}
		s.writeRun(ps[i:j])
		i = j
	}
	return len(ps)
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
// [lo, hi) in one flush pass (flushPass: at most one log force, then runs),
// and returns how many it wrote — now, with the caller waiting. Write-back
// that may wait for a commit's force is owed instead (Owe).
func (s *Store) FlushRange(lo, hi word.Addr) int {
	s.lock()
	defer s.unlock()
	var ps []*page
	for _, p := range s.span(lo, hi) {
		if p != nil && p.dirty {
			ps = append(ps, p)
		}
	}
	return s.flushPass(ps)
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

// FlushIf writes back, in one flush pass, every dirty resident page keep
// selects (every one, for nil), and returns how many it wrote.
func (s *Store) FlushIf(keep func(word.PageID) bool) int {
	s.lock()
	defer s.unlock()
	var ps []*page
	for _, p := range s.pages {
		if p != nil && p.dirty && (keep == nil || keep(p.id)) {
			ps = append(ps, p)
		}
	}
	return s.flushPass(ps)
}

// FlushAll flushes every dirty resident page (clean shutdown; also used by
// tests and by the crash injector to model arbitrary flush orders).
func (s *Store) FlushAll() { s.FlushIf(nil) }

// Owe adds every dirty resident page whose base lies in [lo, hi) to the
// owed set and returns how many it owed: a finished collection's to-space,
// which must reach disk before its from-space is reused (DESIGN.md §4.2a).
// A page not resident, or clean, is on disk already.
func (s *Store) Owe(lo, hi word.Addr) int {
	s.lock()
	defer s.unlock()
	return s.owe(s.span(lo, hi), owedSpace, func(*page) bool { return true })
}

// OweLogged adds every resident page holding a logged write that has not
// reached disk to the owed set, and returns how many it owed: a
// checkpoint's share of write-back, which keeps the redo window bounded.
// Pages dirtied only by unlogged writes never join — redo never needs
// them.
func (s *Store) OweLogged() int {
	s.lock()
	defer s.unlock()
	return s.owe(s.pages, owedCheckpoint, func(p *page) bool { return p.recLSN != word.NilLSN })
}

// Why a page is owed (page.owed).
const (
	owedSpace      uint8 = 1 << iota // a finished collection's to-space: the flip's gate
	owedCheckpoint                   // a checkpoint's share
)

// owe marks the dirty pages of table (ascending, nil entries allowed) that
// pick selects owed for why and merges the newly owed into debt. The write
// lock is held.
func (s *Store) owe(table []*page, why uint8, pick func(*page) bool) int {
	had, n := len(s.debt), 0
	for _, p := range table {
		if p == nil || !p.dirty || p.owed&why != 0 || !pick(p) {
			continue
		}
		if p.owed == 0 {
			s.debt = append(s.debt, p.id)
		}
		p.owed |= why
		n++
	}
	if why == owedSpace {
		s.nspace += n
	}
	if joined := len(s.debt) - had; joined > 0 {
		s.nowed.Add(int64(joined))
		if had > 0 {
			// A page dropped and owed again has a stale entry already.
			slices.Sort(s.debt)
			s.debt = slices.Compact(s.debt)
		}
	}
	return n
}

// Owed returns how many pages the owed set holds; it takes no lock.
func (s *Store) Owed() int { return int(s.nowed.Load()) }

// pay takes p out of the owed set: written back, or its debt void. The
// write lock is held.
func (s *Store) pay(p *page) {
	if p.owed == 0 {
		return
	}
	if p.owed&owedSpace != 0 {
		if s.nspace--; s.nspace == 0 {
			s.ghosts = nil
		}
	}
	p.owed = 0
	s.nowed.Add(-1)
}

// DrainSpaces writes back, in one flush pass — at most one log force, and
// none if a commit has forced past every page since — what finished
// collections still owe (Owe): the flip's gate on reusing a from-space,
// whose collection's to-space must be on disk first. The caller has the
// heap stopped, or runs alone. It returns the pages written.
func (s *Store) DrainSpaces() int { return s.drain(owedSpace) }

// DrainCheckpoints is DrainSpaces for what earlier checkpoints still owe
// (OweLogged): a checkpoint settles the last one's share before it builds
// its record, so the redo window stays about two checkpoint intervals.
func (s *Store) DrainCheckpoints() int { return s.drain(owedCheckpoint) }

// drain writes back the owed pages whose debt is in mask and pays those
// debts; pages owed only for other reasons stay in debt.
func (s *Store) drain(mask uint8) int {
	s.lock()
	defer s.unlock()
	var ps []*page
	kept := s.debt[:0]
	for _, id := range s.debt {
		switch p := s.lookup(id); {
		case p == nil || p.owed == 0:
		case p.owed&mask == 0:
			kept = append(kept, id)
		case p.dirty:
			ps = append(ps, p) // paid as it lands
		default:
			s.pay(p) // clean since it was owed
		}
	}
	s.debt = kept
	return s.flushPass(ps)
}

// Clean is the page cleaner's quantum: it writes back up to budget owed
// pages whose records are all stable — so it never forces the log — in
// runs of consecutive pages, one device write and one end-write record
// each, and returns how many it wrote. The caller holds the heap's stop
// latch shared, which excludes every flip, checkpoint, discard and heap
// stop, and pin pins the writer stripes of a run's pages: with those held
// no writer is between a record's append and its memory write on any page
// of the run, so one snapshot of the whole run reflects, on every page,
// every record up to the run's highest page LSN — the LSN the run is
// written and certified at. The device write runs with no lock held; until
// it lands the pages are marked writing, so no eviction writes or drops
// them, and a write made meanwhile leaves its page dirty again. One cleaner
// runs at a time; another caller returns at once.
func (s *Store) Clean(budget int, pin func(first word.PageID, n int) (unpin func())) int {
	if s.nowed.Load() == 0 || !s.cleanMu.TryLock() {
		return 0
	}
	defer s.cleanMu.Unlock()
	written := 0
	for tries := 0; written < budget && tries < budget; tries++ {
		s.lock()
		first, n := s.nextRun(min(budget-written, maxRun))
		s.unlock()
		if n == 0 {
			break
		}
		unpin := pin(first, n)
		s.lock()
		lsn, n := s.snapshot(first, n)
		s.unlock()
		unpin()
		if n == 0 {
			continue
		}
		s.disk.WriteRun(first, s.cbufs, lsn)
		s.lock()
		for i := range n {
			p := s.lookup(first + word.PageID(i))
			p.writing = false
			if s.discarded(p.id) {
				s.gone[p.id] = false
			}
		}
		s.Met.Cleaned.Add(uint64(n))
		s.endWrite(first, n, lsn)
		s.unlock()
		written += n
	}
	return written
}

// nextRun finds the first run of at most limit consecutive owed pages,
// dirty and with stable records, dropping entries that are no longer owed
// and keeping in place those whose records are still volatile. The write
// lock is held.
func (s *Store) nextRun(limit int) (first word.PageID, n int) {
	kept, i := 0, 0
	for ; i < len(s.debt); i++ {
		p := s.lookup(s.debt[i])
		switch {
		case p == nil || p.owed == 0:
			continue
		case !p.dirty:
			s.pay(p)
			continue
		case s.unstable(p) || p.writing:
			s.debt[kept] = s.debt[i]
			kept++
			continue
		}
		break
	}
	if kept == 0 {
		s.debt = s.debt[i:]
	} else {
		s.debt = append(s.debt[:kept], s.debt[i:]...)
	}
	if kept == len(s.debt) {
		return 0, 0
	}
	first = s.debt[kept]
	for n = 1; n < limit && kept+n < len(s.debt) && s.debt[kept+n] == first+word.PageID(n); n++ {
		if p := s.lookup(first + word.PageID(n)); p == nil || p.owed == 0 || !p.dirty || s.unstable(p) || p.writing {
			break
		}
	}
	return first, n
}

// snapshot takes the images of the run [first, first+n) — cut short at the
// first page a writer made ineligible since nextRun chose it — into the
// cleaner's buffers, marks those pages writing and clean, and returns the
// LSN the run is written at and its length. The write lock is held and
// the run's writer stripes are pinned.
func (s *Store) snapshot(first word.PageID, n int) (word.LSN, int) {
	var lsn word.LSN
	for i := range n {
		p := s.lookup(first + word.PageID(i))
		if p == nil || p.owed == 0 || !p.dirty || s.unstable(p) || p.writing {
			n = i
			break
		}
		lsn = max(lsn, p.lsn)
	}
	if size := n * s.cfg.PageSize; len(s.snap) < size {
		s.snap = make([]byte, size)
	}
	s.cbufs = s.cbufs[:0]
	for i := range n {
		p := s.lookup(first + word.PageID(i))
		img := s.snap[i*s.cfg.PageSize:][:s.cfg.PageSize]
		copy(img, p.data)
		s.cbufs = append(s.cbufs, img)
		p.dirty = false
		p.recLSN = word.NilLSN
		p.writing = true
		p.lsn = lsn
		s.pay(p)
	}
	return lsn, n
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
// modifications not yet on disk, with its recLSN, and, while a finished
// collection's to-space is owed, the entries its freed from-space lost to
// the discard (ghosts) — a page can appear twice, and redo starts at the
// earlier. Pages dirtied only by unlogged (volatile-object) writes are
// excluded — redo never needs them.
func (s *Store) DirtyPages() []wal.DirtyPage {
	s.lock()
	defer s.unlock()
	var out []wal.DirtyPage
	for _, p := range s.pages {
		if p != nil && p.dirty && p.recLSN != word.NilLSN {
			out = append(out, wal.DirtyPage{Page: p.id, RecLSN: p.recLSN})
		}
	}
	return append(out, s.ghosts...)
}

// Crash models a system failure: main memory is lost. Cached pages vanish;
// the disk and the stable log survive (the log device is crashed
// separately by the owner).
func (s *Store) Crash() {
	s.lock()
	defer s.unlock()
	clear(s.pages)
	s.gone = nil
	s.debt = nil
	s.nowed.Store(0)
	s.nspace = 0
	s.ghosts = nil
	s.nres = 0
	s.prot = nil
	s.ring = nil
	s.hand = 0
	s.inTrap = false
}

// Protect arms the read barrier on the page: the next barriered access
// traps. Protection is pure page-table state; it neither faults the page
// in nor touches its contents.
func (s *Store) Protect(id word.PageID) { s.protSpan(id, id+1, true) }

// Unprotect disarms the read barrier on the page.
func (s *Store) Unprotect(id word.PageID) {
	if s.Protected(id) {
		s.prot[id] = false
	}
}

// ProtectRange arms the read barrier on every page overlapping [lo, hi): a
// flip's whole to-space.
func (s *Store) ProtectRange(lo, hi word.Addr) {
	first, end := s.overlap(lo, hi)
	s.protSpan(first, end, true)
}

// UnprotectRange disarms the read barrier on every page overlapping
// [lo, hi) and no other: what a finished collection's sweep left armed.
func (s *Store) UnprotectRange(lo, hi word.Addr) {
	first, end := s.overlap(lo, hi)
	s.protSpan(first, min(end, word.PageID(len(s.prot))), false)
}

// overlap returns the ids [first, end) of the pages overlapping [lo, hi).
func (s *Store) overlap(lo, hi word.Addr) (first, end word.PageID) {
	if hi <= lo {
		return 0, 0
	}
	return lo.Page(s.cfg.PageSize), (hi - 1).Page(s.cfg.PageSize) + 1
}

// protSpan sets the protection of the pages [first, end), growing prot to
// cover them when it arms them.
func (s *Store) protSpan(first, end word.PageID, on bool) {
	if first >= end {
		return
	}
	if on && uint64(end) > uint64(len(s.prot)) {
		s.prot = append(s.prot, make([]bool, uint64(end)-uint64(len(s.prot)))...)
	}
	if on {
		for i := range s.prot[first:end] {
			s.prot[first+word.PageID(i)] = true
		}
	} else {
		clear(s.prot[first:end])
	}
}

// Protected reports whether the page currently traps.
func (s *Store) Protected(id word.PageID) bool {
	return uint64(id) < uint64(len(s.prot)) && s.prot[id]
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
		if !s.Protected(id) {
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
		if s.Protected(id) {
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
		s.pay(p) // dead contents owe nothing
		s.drop(p.id)
		dropped++
	}
	if s.nspace > 0 {
		s.ghosts = append(s.ghosts, ghosts...)
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
