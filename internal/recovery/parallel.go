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
// Workers replay into shard-private page caches (vm.Store is
// single-threaded), which are merged back into the store after the join in
// a way that reproduces the sequential recLSN/page-LSN/dirty state exactly.

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
	dpt      map[word.PageID]word.LSN
	workers  int
	chans    []chan redoTask
	wg       sync.WaitGroup
	applied  []int64 // per-worker applied counts for single-shard records
	records  []int   // per-worker records delivered (skew stat)
	multis   []*atomic.Bool
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
		if r.apply(t.lsn, t.rec) {
			if t.multi != nil {
				t.multi.Store(true)
			} else {
				e.applied[i]++
			}
		}
	}
}

// drain quiesces every worker: each acknowledges a flush token, and the
// Done→Wait edge publishes all shard-cache writes to the dispatcher. The
// dispatcher's next channel send publishes its own writes back.
func (e *parallelRedo) drain() {
	var fw sync.WaitGroup
	fw.Add(e.workers)
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

// rangeMask returns the bitmask of shards owning pages of [addr, addr+n).
func (e *parallelRedo) rangeMask(addr word.Addr, n int) uint64 {
	var mask uint64
	ps := e.mem.ps
	for pg := addr.Page(ps); pg.Base(ps) < addr+word.Addr(n); pg++ {
		mask |= 1 << uint(e.mem.shardOf(pg))
	}
	return mask
}

// route classifies a record: the shards it must visit, or barrier=true for
// records that must be applied serially against the combined view
// (content-free copy records, which read from-space to write to-space).
// Mask 0 means the record has no page effects. The page spans mirror
// redoer.apply's writes exactly.
func (e *parallelRedo) route(rec wal.Record) (mask uint64, barrier bool) {
	switch t := rec.(type) {
	case wal.UpdateRec:
		return e.rangeMask(t.Addr, len(t.Redo)), false
	case wal.CLRRec:
		if t.Flags&wal.CLRLogicalDelta != 0 {
			return e.rangeMask(t.Addr, word.WordSize), false
		}
		return e.rangeMask(t.Addr, len(t.Redo)), false
	case wal.LogicalRec:
		return e.rangeMask(t.Addr, word.WordSize), false
	case wal.AllocRec:
		return e.rangeMask(t.Addr, word.WordsToBytes(t.SizeWords)), false
	case wal.CopyRec:
		n := word.WordsToBytes(t.SizeWords)
		if len(t.Contents) != n {
			return 0, true
		}
		// Self-contained: to-space pages plus the from-space page that
		// takes the forwarding pointer.
		return e.rangeMask(t.To, n) | e.rangeMask(t.From, word.WordSize), false
	case wal.ScanRec:
		if len(t.Fixes) == 0 {
			return 0, false
		}
		return 1 << uint(e.mem.shardOf(t.Page)), false
	case wal.SFixRec:
		if len(t.Fixes) == 0 {
			return 0, false
		}
		return 1 << uint(e.mem.shardOf(t.Page)), false
	case wal.BaseRec:
		return e.rangeMask(t.Addr, len(t.Object)), false
	case wal.V2SCopyRec:
		return e.rangeMask(t.To, len(t.Object)), false
	default:
		return 0, false // control records have no page effects
	}
}

// runParallelRedo repeats history from start with the given worker count,
// filling res.RedoScanned/RedoApplied and the redo fields of res.Stats.
// mem must hold no resident pages (the recovery contract: a fresh store
// over the surviving disk); the caller checks this and falls back to
// sequential redo otherwise.
func runParallelRedo(mem *vm.Store, log *wal.Manager, dpt map[word.PageID]word.LSN, start word.LSN, workers int, res *Result) {
	sm := newShardedMem(mem.Disk(), mem.PageSize(), workers)
	e := &parallelRedo{
		mem: sm, dpt: dpt, workers: workers,
		chans:   make([]chan redoTask, workers),
		applied: make([]int64, workers),
		records: make([]int, workers),
	}
	for i := range e.chans {
		e.chans[i] = make(chan redoTask, 4*redoBatchSize)
	}
	e.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go e.worker(i)
	}

	barriers := 0
	serial := &redoer{mem: sm, dpt: dpt} // unfiltered; runs only while quiesced
	log.ScanBatch(start, true, redoBatchSize, func(lsns []word.LSN, recs []wal.Record) bool {
		for i, rec := range recs {
			res.RedoScanned++
			mask, barrier := e.route(rec)
			if barrier {
				e.drain()
				barriers++
				if serial.apply(lsns[i], rec) {
					res.RedoApplied++
				}
				continue
			}
			switch bits.OnesCount64(mask) {
			case 0:
			case 1:
				e.chans[bits.TrailingZeros64(mask)] <- redoTask{lsn: lsns[i], rec: rec}
			default:
				flag := &atomic.Bool{}
				e.multis = append(e.multis, flag)
				for m := mask; m != 0; m &= m - 1 {
					e.chans[bits.TrailingZeros64(m)] <- redoTask{lsn: lsns[i], rec: rec, multi: flag}
				}
			}
		}
		return true
	})
	for i := range e.chans {
		close(e.chans[i])
	}
	e.wg.Wait()
	if e.panicVal != nil {
		panic(e.panicVal)
	}
	for i := 0; i < workers; i++ {
		res.RedoApplied += int(e.applied[i])
	}
	for _, f := range e.multis {
		if f.Load() {
			res.RedoApplied++
		}
	}
	res.Stats.RedoWorkers = workers
	res.Stats.Barriers = barriers
	res.Stats.ShardRecords = e.records
	sm.mergeInto(mem)
}
