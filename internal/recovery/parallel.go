package recovery

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"stableheap/internal/storage"
	"stableheap/internal/vm"
	"stableheap/internal/wal"
	"stableheap/internal/word"
)

// Parallel page-partitioned redo.
//
// Page-LSN conditioning makes the effect of redo on one page a function of
// the page's disk image and the subsequence of records touching that page,
// in LSN order — records for different pages commute. So the log can be
// replayed by N workers as long as (a) every page is owned by exactly one
// worker (hash(page) mod N), (b) each worker sees its records in LSN order
// (a single dispatcher feeding per-shard FIFO channels), and (c) the rare
// records that READ one page to write another — content-free copy records
// replaying the from-space image into to-space — are applied by the
// dispatcher alone while all shards are quiesced (a barrier). DESIGN.md
// "Parallel recovery" gives the full argument.
//
// Workers replay into shard-private page caches rather than into vm.Store.
// The store is safe to share (it carries an RWMutex since the sharded
// latch), but every page miss would take its write lock and its clock would
// evict in an order that depends on how the workers interleave. Private
// caches keep replay lock-free and its outcome independent of scheduling;
// they are merged back after the join in a way that reproduces the
// sequential recLSN/page-LSN/dirty state exactly.

// redoBatchSize is how many records the dispatcher decodes per log read.
const redoBatchSize = 128

// shardPage is one page image in a shard-private cache.
type shardPage struct {
	data []byte
	lsn  word.LSN // page LSN after the writes applied so far
	// firstApplied is the LSN of the first record applied to the page
	// here — what the page's recLSN would be under sequential redo.
	firstApplied word.LSN
	dirty        bool
}

// shardedMem implements pageIO over per-shard page caches backed by the
// surviving disk. Each page is touched only by its owning worker (or by the
// dispatcher while all workers are quiesced), so the shard maps need no
// locks; only the disk is shared, and only its stats are mutable, so disk
// page reads are serialized by a mutex while pure page-LSN lookups are not.
type shardedMem struct {
	ps      int
	nShards int
	disk    storage.PageStore
	diskMu  sync.Mutex
	shards  []map[word.PageID]*shardPage
}

func newShardedMem(disk storage.PageStore, pageSize, nShards int) *shardedMem {
	m := &shardedMem{ps: pageSize, nShards: nShards, disk: disk,
		shards: make([]map[word.PageID]*shardPage, nShards)}
	for i := range m.shards {
		m.shards[i] = make(map[word.PageID]*shardPage)
	}
	return m
}

// shardOf deterministically assigns a page to a shard (Fibonacci hashing,
// so contiguous page runs spread across shards).
func (m *shardedMem) shardOf(pg word.PageID) int {
	return int((uint64(pg) * 0x9E3779B97F4A7C15) % uint64(m.nShards))
}

// page returns the cached image of pg, loading it from disk on first touch
// (zero-filled with NilLSN if the page was never written, matching vm).
func (m *shardedMem) page(pg word.PageID) *shardPage {
	sh := m.shards[m.shardOf(pg)]
	if p, ok := sh[pg]; ok {
		return p
	}
	data, lsn, ok := m.readDisk(pg)
	if !ok {
		data = make([]byte, m.ps)
		lsn = word.NilLSN
	}
	p := &shardPage{data: data, lsn: lsn, firstApplied: word.NilLSN}
	sh[pg] = p
	return p
}

// readDisk reads pg from the shared disk under diskMu. The unlock is
// deferred: a fault-injecting disk reports corruption and surfaced I/O
// errors as typed panics out of ReadPage, and a mutex leaked by that unwind
// parks every other worker on its next page load forever (the panicking
// worker itself recovers and keeps draining its channel).
func (m *shardedMem) readDisk(pg word.PageID) ([]byte, word.LSN, bool) {
	m.diskMu.Lock()
	defer m.diskMu.Unlock()
	return m.disk.ReadPage(pg)
}

// PageSize implements pageIO.
func (m *shardedMem) PageSize() int { return m.ps }

// PageLSN implements pageIO. The disk fallback is a pure map read and the
// disk is never written during redo, so no lock is needed.
func (m *shardedMem) PageLSN(pg word.PageID) word.LSN {
	if p, ok := m.shards[m.shardOf(pg)][pg]; ok {
		return p.lsn
	}
	return m.disk.PageLSN(pg)
}

// ReadBytes implements pageIO.
func (m *shardedMem) ReadBytes(addr word.Addr, n int) []byte {
	out := make([]byte, n)
	off := 0
	for off < n {
		cur := addr + word.Addr(off)
		pg := cur.Page(m.ps)
		p := m.page(pg)
		off += copy(out[off:], p.data[int(cur-pg.Base(m.ps)):])
	}
	return out
}

// WriteBytes implements pageIO with vm.Store's page bookkeeping semantics.
func (m *shardedMem) WriteBytes(addr word.Addr, data []byte, lsn word.LSN) {
	off := 0
	for off < len(data) {
		cur := addr + word.Addr(off)
		pg := cur.Page(m.ps)
		p := m.page(pg)
		off += copy(p.data[int(cur-pg.Base(m.ps)):], data[off:])
		p.dirty = true
		if lsn != word.NilLSN {
			if p.firstApplied == word.NilLSN {
				p.firstApplied = lsn
			}
			if lsn > p.lsn {
				p.lsn = lsn
			}
		}
	}
}

// ReadWord implements pageIO.
func (m *shardedMem) ReadWord(addr word.Addr) uint64 {
	pg := addr.Page(m.ps)
	p := m.page(pg)
	return word.GetWord(p.data, int(addr-pg.Base(m.ps)))
}

// WriteWord implements pageIO.
func (m *shardedMem) WriteWord(addr word.Addr, w uint64, lsn word.LSN) {
	var b [word.WordSize]byte
	word.PutWord(b[:], 0, w)
	m.WriteBytes(addr, b[:], lsn)
}

// mergeInto writes the shard caches' dirty pages back into the store. For a
// page first modified at firstApplied and last at lsn, sequential redo
// would have left it resident with recLSN=firstApplied, page LSN=lsn,
// dirty=true — WriteBytes followed by SetPageLSNForRecovery reproduces
// exactly that (firstApplied always exceeds the disk page LSN, because the
// first write was page-LSN conditioned against the disk image). Pages read
// but never written are not merged; the store falls back to the identical
// disk image for them.
func (m *shardedMem) mergeInto(mem *vm.Store) {
	type dirtyPage struct {
		pg word.PageID
		p  *shardPage
	}
	var all []dirtyPage
	for _, sh := range m.shards {
		for pg, p := range sh {
			if p.dirty {
				all = append(all, dirtyPage{pg, p})
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].pg < all[j].pg })
	for _, d := range all {
		mem.WriteBytes(d.pg.Base(m.ps), d.p.data, d.p.firstApplied)
		mem.SetPageLSNForRecovery(d.pg, d.p.lsn)
	}
}

// redoTask is one unit of work for a shard: a record to apply, or a flush
// token (rec nil, flush set) the worker acknowledges for a barrier.
type redoTask struct {
	lsn word.LSN
	rec wal.Record
	// multi is the shared applied-flag of a record spanning several
	// shards; nil for single-shard records.
	multi *atomic.Bool
	flush *sync.WaitGroup
}

// parallelRedo runs the dispatcher-plus-workers redo engine.
type parallelRedo struct {
	mem      *shardedMem
	dpt      *dirtyPages
	chans    []chan redoTask
	wg       sync.WaitGroup
	applied  []int   // per-worker records that modified a page
	records  []int   // per-worker records delivered (skew stat)
	serial   *redoer // unfiltered; runs only while the workers are quiesced
	barriers int
	panicMu  sync.Mutex
	panicVal any
}

func (e *parallelRedo) worker(i int) {
	defer e.wg.Done()
	defer func() {
		if p := recover(); p != nil {
			e.panicMu.Lock()
			if e.panicVal == nil {
				e.panicVal = p
			}
			e.panicMu.Unlock()
			// Keep consuming so the dispatcher never blocks on a full
			// channel or an unacknowledged barrier; the captured panic is
			// re-raised on the dispatcher after the join.
			for t := range e.chans[i] {
				if t.flush != nil {
					t.flush.Done()
				}
			}
		}
	}()
	r := &redoer{mem: e.mem, dpt: e.dpt,
		owns: func(pg word.PageID) bool { return e.mem.shardOf(pg) == i }}
	for t := range e.chans[i] {
		if t.flush != nil {
			t.flush.Done()
			continue
		}
		e.records[i]++
		// A record spanning shards counts once, for the first to apply it.
		if r.apply(t.lsn, t.rec) && (t.multi == nil || t.multi.CompareAndSwap(false, true)) {
			e.applied[i]++
		}
	}
}

// drain quiesces every worker: each acknowledges a flush token, and the
// Done→Wait edge publishes all shard-cache writes to the dispatcher. The
// dispatcher's next channel send publishes its own writes back.
func (e *parallelRedo) drain() {
	var fw sync.WaitGroup
	fw.Add(len(e.chans))
	for i := range e.chans {
		e.chans[i] <- redoTask{flush: &fw}
	}
	fw.Wait()
	e.panicMu.Lock()
	p := e.panicVal
	e.panicMu.Unlock()
	if p != nil {
		panic(p)
	}
}

// route classifies a record from its footprint: the shards owning the pages
// it writes (mask 0: no page effects), or barrier=true when replay reads a
// page it does not write and so must run serially against the combined view.
func (e *parallelRedo) route(rec wal.Record) (mask uint64, barrier bool) {
	writes, readsElsewhere := footprint(rec)
	if readsElsewhere {
		return 0, true
	}
	for _, s := range writes {
		for pg, last := s.pages(e.mem.ps); pg <= last; pg++ {
			mask |= 1 << uint(e.mem.shardOf(pg))
		}
	}
	return mask, false
}

// startParallelRedo launches the workers of a sharded redo over mem's disk.
// replay then feeds it every record, in LSN order, through dispatch and
// calls finish. mem must hold no resident pages (the recovery contract: a
// fresh store over the surviving disk); replay checks this and falls back
// to sequential redo otherwise.
func startParallelRedo(mem *vm.Store, dpt *dirtyPages, workers int) *parallelRedo {
	sm := newShardedMem(mem.Disk(), mem.PageSize(), workers)
	e := &parallelRedo{
		mem: sm, dpt: dpt,
		chans:   make([]chan redoTask, workers),
		applied: make([]int, workers),
		records: make([]int, workers),
		serial:  &redoer{mem: sm, dpt: dpt},
	}
	for i := range e.chans {
		e.chans[i] = make(chan redoTask, 4*redoBatchSize)
	}
	e.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go e.worker(i)
	}
	return e
}

// dispatch hands one record to the shards it writes. A barrier record is
// replayed here instead, with every worker quiesced; only then is the
// result (a page was modified) known to the caller.
func (e *parallelRedo) dispatch(lsn word.LSN, rec wal.Record) bool {
	mask, barrier := e.route(rec)
	if barrier {
		e.drain()
		e.barriers++
		return e.serial.apply(lsn, rec)
	}
	task := redoTask{lsn: lsn, rec: rec}
	if bits.OnesCount64(mask) > 1 {
		task.multi = &atomic.Bool{}
	}
	for m := mask; m != 0; m &= m - 1 {
		e.chans[bits.TrailingZeros64(m)] <- task
	}
	return false
}

// finish joins the workers, adds their applied counts and the redo fields
// of res.Stats to res, and merges the shard caches into mem.
func (e *parallelRedo) finish(mem *vm.Store, res *Result) {
	for i := range e.chans {
		close(e.chans[i])
	}
	e.wg.Wait()
	if e.panicVal != nil {
		panic(e.panicVal)
	}
	for _, n := range e.applied {
		res.RedoApplied += n
	}
	res.Stats.RedoWorkers = len(e.chans)
	res.Stats.Barriers = e.barriers
	res.Stats.ShardRecords = e.records
	e.mem.mergeInto(mem)
}
