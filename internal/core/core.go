// Package core assembles the stable heap (Ch. 2, 5, 7): one virtual
// address space divided into a stable area — collected by the atomic
// incremental copying collector and protected by write-ahead logging — and
// a volatile area — collected by a plain unlogged copying collector — with
// transactions, concurrent stability tracking, checkpointing, crash
// simulation, and recovery wired together.
//
// Address space layout (page 0 is reserved so that address 0 is never
// valid):
//
//	[page 1 …                )  stable semispace 0
//	[… , …                   )  stable semispace 1
//	[… , …                   )  volatile semispace 0
//	[… , …                   )  volatile semispace 1
//
// Low-level actions are indivisible, matching the paper's model in which
// context switches happen only at action boundaries (§2.1). Independent
// transactions run their actions in parallel under a sharded action latch
// (see latch.go): reads and single-page logged updates hold the stop latch
// shared (updates additionally hold one per-page writer stripe), while
// anything that moves objects or walks global state — collection work,
// stability tracking, abort, checkpoint, recovery — stops the heap by
// taking the latch exclusively.
package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"stableheap/internal/gc"
	"stableheap/internal/heap"
	"stableheap/internal/histcheck"
	"stableheap/internal/lock"
	"stableheap/internal/obs"
	"stableheap/internal/recovery"
	"stableheap/internal/stability"
	"stableheap/internal/storage"
	"stableheap/internal/storage/filestore"
	"stableheap/internal/tx"
	"stableheap/internal/vm"
	"stableheap/internal/wal"
	"stableheap/internal/word"
)

// Errors returned by heap operations.
var (
	// ErrConflict is returned when a lock cannot be acquired; the caller
	// should abort and retry the transaction.
	ErrConflict = errors.New("core: lock conflict")
	// ErrHeapFull is returned when an allocation cannot be satisfied
	// even after collection.
	ErrHeapFull = errors.New("core: heap full")
	// ErrTxDone is returned for operations on a finished transaction.
	ErrTxDone = errors.New("core: transaction already finished")
)

// Config sizes and parameterizes a stable heap.
type Config struct {
	// Dir, when set, says the heap's backings are files in this directory
	// (internal/storage/filestore: filestore.Backings lays them out):
	// fsync-ordered page writes and a segmented on-disk log under the one vm
	// page pool, so with a bounded CachePages the heap both survives process
	// exit and can grow far beyond RAM. A zero LogSegBytes then takes the
	// file segment default, and the flight recorder records the page
	// store's barriers. Empty keeps the in-memory backings.
	Dir string
	// Deprecated: folded into CachePages. On a Dir heap with a bounded
	// CachePages the vm pool holds CachePages + FileCachePages pages;
	// otherwise it is ignored. Kept only for the frozen benchmark harness,
	// which sets it.
	FileCachePages int
	// PageSize in bytes (default 1024).
	PageSize int
	// StableWords is the size of each stable semispace in words
	// (default 64Ki words = 512 KiB).
	StableWords int
	// VolatileWords is the size of each volatile semispace in words
	// (default 16Ki words). Ignored on an Undivided heap.
	VolatileWords int
	// NurseryBytes sizes the nursery generation: a small unlogged space
	// where new volatile objects are born; minor collections copy
	// survivors into the aged semispace (or, for newly stable objects,
	// the stable area) and reset the nursery wholesale. 0 picks the
	// default — 256 KiB, an L2-cache-sized nursery in the CertiCoq
	// style, clamped to half a volatile semispace — and a negative value
	// disables the nursery. Ignored on an Undivided heap.
	NurseryBytes int
	// ConcurrentVGC makes full volatile collections mostly-concurrent:
	// the stop latch is held only for the flip (roots, remembered-set
	// fixes, logged LS evacuations) while the copying scan runs in
	// quanta on a collector goroutine behind a read barrier and a
	// snapshot-at-the-beginning deletion barrier. An Undivided heap has no
	// volatile area to collect, so the combination is rejected at open.
	ConcurrentVGC bool
	// ManualScan suppresses the collector goroutines and the commit assist
	// of both concurrent modes: an in-flight concurrent scan advances only
	// through StepVolatileScan / StepStableScan and the inline retirement
	// points (the next collection, a stable flip, Close). Deterministic
	// harnesses (chaos replay) use this to pace the scans from the seed
	// instead of the goroutine scheduler, so runs stay bit-identical.
	// Meaningless without ConcurrentVGC or the gc.Concurrent stable collector.
	ManualScan bool
	// Undivided drops the stable/volatile split of Chapter 5: every object
	// lives in the stable area and every update is logged (the Chapters 3–4
	// configuration, the E9 baseline). A heap-layout choice, orthogonal to
	// the collector.
	Undivided bool
	// StableGC names the stable area's collector. The zero value, gc.Ellis,
	// is the paper's; gc.EllisTrapDriven, gc.Baker and gc.StopTheWorld are
	// one ablation each (the barrier and pause experiments) and gc.Concurrent
	// is the mostly-concurrent extension. Each is described at its constant;
	// DESIGN.md "Collector modes" tabulates what each arms and who paces it.
	StableGC gc.Mode
	// CachePages caps the page cache (0 = unlimited).
	CachePages int
	// LogSegBytes is the size at which the log's segment files roll.
	LogSegBytes int
	// LockWait bounds lock waits before a conflict error (0 = fail
	// fast; deadlock victims time out).
	LockWait time.Duration
	// NumRoots is the size of the stable root array (default 32).
	NumRoots int
	// CopyContents makes the collector's copy records carry full object
	// images (the E14 ablation of the paper's content-free records). A
	// log-format choice, orthogonal to the collector.
	CopyContents bool
	// Deprecated: ignored; redo is sequential (DESIGN.md §4.3a). Kept only
	// for the frozen benchmark harness, which sets it.
	RecoveryWorkers int
	// FlightRecorder enables the heap's event ring (internal/obs): compact
	// binary records — tx begin/commit/abort, collector flips, steps and
	// quanta, WAL forces, latch stalls, recovery phases, injected faults —
	// with durations, exportable as Chrome trace_event JSON
	// (Heap.TraceJSON). Crash keeps the ring, so the heap that crashed
	// still reads its pre-crash timeline (Heap.FlightDump, shstat
	// -decode); a process death loses it. Latency histograms are always
	// on regardless; the recorder is the only opt-in piece.
	FlightRecorder bool
	// WatchdogInterval, when positive, starts a stall-watchdog goroutine
	// that snapshots the metrics on this ticker and runs anomaly rules
	// over consecutive windows (mutator stalls far beyond p99, nursery
	// minor-collection runaway, commit-force convoys); trips count in
	// obs_watchdog_trips_total and record EvWatchdog events. Off (0) by
	// default: deterministic harnesses must not host a background
	// goroutine that perturbs scheduling.
	WatchdogInterval time.Duration
}

// WithDefaults returns the configuration with zero fields replaced by the
// sizing Open would actually use (a harness building its own devices
// outside the core matches the heap's geometry with it).
func (c Config) WithDefaults() Config {
	if c.PageSize == 0 {
		c.PageSize = 1024
	}
	if c.StableWords == 0 {
		c.StableWords = 64 * 1024
	}
	if c.VolatileWords == 0 {
		c.VolatileWords = 16 * 1024
	}
	if c.NumRoots == 0 {
		c.NumRoots = 32
	}
	return c
}

// onFiles resolves what a heap on its own directory does differently: the
// deprecated FileCachePages folds into a bounded CachePages (the vm pool is
// a Dir heap's only page cache, and holds the pages the two stacked caches
// held before), and a zero LogSegBytes takes the file segment default. Both
// fields are resolved, so reopening with the heap's Config() folds nothing
// twice. A no-op without Dir.
func (c Config) onFiles() Config {
	if c.Dir == "" {
		return c
	}
	if c.CachePages > 0 {
		c.CachePages += c.FileCachePages
	}
	c.FileCachePages = 0
	if c.LogSegBytes <= 0 {
		c.LogSegBytes = filestore.DefaultSegmentBytes
	}
	return c
}

// Validate rejects the configurations no heap can honour. Open runs it
// before any device is touched and returns its error.
func (c Config) Validate() error {
	if !c.StableGC.Valid() {
		return fmt.Errorf("core: Config.StableGC %v names no collector", c.StableGC)
	}
	if c.ConcurrentVGC && c.Undivided {
		return errors.New("core: Config.ConcurrentVGC on an Undivided heap: there is no volatile area to collect")
	}
	return nil
}

// gcTriggerFraction starts a stable collection when free space in the
// current semispace drops below this fraction of it.
const gcTriggerFraction = 0.25

// defaultNurseryBytes sizes the nursery to a typical L2 cache, the
// CertiCoq heuristic: minor collections then run mostly in cache.
const defaultNurseryBytes = 256 << 10

// nurseryWords resolves the configured nursery size to words (0 when the
// nursery is disabled): the default applies at 0, the size is clamped to
// half a volatile semispace (the aged space must be able to absorb a full
// nursery during a concurrent scan), and rounded down to whole pages.
func (c Config) nurseryWords() int {
	if c.Undivided || c.NurseryBytes < 0 {
		return 0
	}
	b := c.NurseryBytes
	if b == 0 {
		b = defaultNurseryBytes
	}
	if max := word.WordsToBytes(c.VolatileWords) / 2; b > max {
		b = max
	}
	if b < c.PageSize {
		b = c.PageSize
	}
	b -= b % c.PageSize
	return word.BytesToWords(b)
}

// DefaultConfig is the zero Config with its sizes filled in: a small divided
// heap with the Ellis incremental collector — the paper's recommended
// configuration.
func DefaultConfig() Config { return Config{}.WithDefaults() }

// Ref is a stable reference to a heap object: a registered mutator root
// the collectors keep current as objects move. Refs belong to the
// transaction that created them.
type Ref = tx.Handle

// Heap is a stable heap instance, over byte backings in memory or over a
// directory's files (Open). The root package re-exports it as
// stableheap.Heap.
type Heap struct {
	cfg    Config
	disk   *storage.Disk
	logDev *storage.Log
	log    *wal.Manager
	mem    *vm.Store
	h      *heap.Heap
	locks  *lock.Manager
	txm    *tx.Manager
	sgc    *gc.Collector
	vgc    *gc.VolatileCollector // nil when Undivided
	ckpt   *recovery.Checkpointer
	track  *stability.Tracker

	// The sharded action latch (latch.go): stop admits transaction
	// actions shared and heap-stopping work exclusive; shards stripe
	// writers by page; coarse mirrors sgc.Active() so every action goes
	// exclusive while a stable collection is in progress.
	stop   sync.RWMutex
	shards []sync.Mutex
	coarse atomic.Bool
	// failed is the device fault that made the heap fail-stop (latch.go);
	// nil while it runs.
	failed atomic.Pointer[error]

	// The concurrent-collection gate (latch.go) and the two concurrent-scan
	// drivers (concscan.go): while either area's scan is in flight
	// (scanning()), ordinary actions additionally hold gate shared and the
	// collector goroutine runs its quanta under gate exclusive — so copying
	// excludes mutators without ever taking the stop latch. gateHeldExcl
	// tracks whether the current exclusive section acquired the gate
	// (single-writer under stop). scanWG joins the collector goroutines on
	// Close/Crash.
	gate         sync.RWMutex
	gateHeldExcl bool
	vscan, sscan concScan
	scanWG       sync.WaitGroup

	// grayQ is the snapshot-at-the-beginning gray stack: pointer values
	// (volatile or stable) overwritten during a concurrent scan. They are
	// evacuated at the next exclusive section or scan quantum — always
	// before any abort could restore them into a scanned object.
	grayMu sync.Mutex
	grayQ  []word.Addr

	// rootObj is the current address of the stable root object (an
	// object with NumRoots pointer fields living in the stable area).
	rootObj word.Addr
	// volRootObj is the volatile root object; it does not survive
	// crashes. NilAddr when Undivided.
	volRootObj word.Addr

	// ls is the LS set: newly stable objects still at volatile
	// addresses, each with its size in words. srem is the stable→volatile
	// remembered set: stable-area slots holding volatile pointers. nrem is
	// the nursery remembered set: aged volatile slots holding nursery
	// pointers (stable slots holding nursery pointers are covered by srem,
	// since the nursery is part of the volatile area). ls is only touched
	// in exclusive sections; srem and nrem are additionally written by
	// concurrent shared update actions (through the write-barrier hooks)
	// and rebased by the read barrier's copies, so remMu guards both.
	ls    map[word.Addr]int
	remMu sync.Mutex
	srem  map[word.Addr]bool
	nrem  map[word.Addr]bool
	// lsWords and lsNurseryWords total the sizes in ls, over the set and
	// over its nursery part: the stable space a volatile collection and a
	// minor one need. addLS, dropLS and clearLS keep them.
	lsWords, lsNurseryWords int

	// hist, when set, records every transactional action for offline
	// serializability checking (internal/histcheck). Install it with
	// SetHistoryRecorder before any concurrent use.
	hist *histcheck.Recorder

	// commitGate is held shared by a commit from before its commit record
	// until it has released its locks, across the force it parks on outside
	// every latch. The commit record decides the transaction and is its
	// last (tx.Manager.PrepareCommit); Close and Crash take the gate
	// exclusively first, so neither runs while a decided transaction still
	// holds its locks or waits to learn that its record is stable.
	commitGate sync.RWMutex

	// met holds the heap-level latency histograms (always on) and reg
	// names them with every subsystem's metrics (metrics.go); bb/wd are
	// the flight recorder and the stall watchdog (both nil unless
	// Config.FlightRecorder / WatchdogInterval — and all their methods are
	// nil-safe, so instrumentation sites call unconditionally).
	met heapMetrics
	reg obs.Registry
	bb  *obs.BlackBox
	wd  *obs.Watchdog

	// area bounds (nurLo/nurHi are zero when the nursery is disabled)
	stableLo, stableHi word.Addr
	volLo, volHi       word.Addr
	nurLo, nurHi       word.Addr

	// chunks are the transactions' allocation chunks carved since the
	// nursery was last emptied; a carve takes chunkWords, or one object's
	// size when that is larger (chunk.go). Changed only with the heap
	// stopped.
	chunks     []*chunk
	chunkWords int

	lastRecovery *recovery.Result
}

// Tx is an open transaction on a Heap (stableheap.Tx).
type Tx struct {
	hp  *Heap
	t   *tx.Tx
	err error // sticky failure (conflict): only Abort is allowed
	// cands collects the targets of this transaction's pointer stores into
	// stable state, for commit-time stability tracking. Only the
	// transaction's own goroutine touches it.
	cands []*tx.Handle
	// chunk is where its small new objects go (chunk.go).
	chunk chunk
}

// build wires the subsystems over existing devices (no formatting).
func build(cfg Config, disk *storage.Disk, logDev *storage.Log) *Heap {
	log := wal.NewManager(logDev)
	mem := vm.New(vm.Config{PageSize: cfg.PageSize, CachePages: cfg.CachePages}, disk, log)
	h := heap.New(mem)
	locks := lock.NewManager(cfg.LockWait)

	hp := &Heap{
		cfg: cfg, disk: disk, logDev: logDev, log: log, mem: mem, h: h, locks: locks,
		shards: make([]sync.Mutex, latchShards),
		ls:     make(map[word.Addr]int),
		srem:   make(map[word.Addr]bool),
		nrem:   make(map[word.Addr]bool),
	}

	ps := word.Addr(cfg.PageSize)
	hp.stableLo = ps
	hp.stableHi = hp.stableLo + word.Addr(word.WordsToBytes(2*cfg.StableWords))
	if !cfg.Undivided {
		// Keep areas page aligned.
		hp.volLo = alignUp(hp.stableHi, cfg.PageSize)
		hp.volHi = hp.volLo + word.Addr(word.WordsToBytes(2*cfg.VolatileWords))
		if nw := cfg.nurseryWords(); nw > 0 {
			hp.nurLo = alignUp(hp.volHi, cfg.PageSize)
			hp.nurHi = hp.nurLo + word.Addr(word.WordsToBytes(nw))
			hp.chunkWords = word.BytesToWords(chunkPages * cfg.PageSize)
		}
	}

	hp.txm = tx.NewManager(log, mem, h, locks, tx.Env{
		VolatilePred:       hp.inVolatile,
		OnStableSlotWrite:  hp.onStableSlotWrite,
		OnVolatilePtrWrite: hp.onVolatilePtrWrite,
	})

	hp.sgc = gc.New(gc.Config{Mode: cfg.StableGC, CopyContents: cfg.CopyContents},
		mem, h, log, hp.stableLo, hp.stableHi)

	if cfg.FlightRecorder {
		hp.bb = obs.NewBlackBox(obs.BlackBoxEvents)
	}
	log.SetRecorder(hp.bb)
	hp.sgc.SetRecorder(hp.bb)
	// A heap on its own directory records the disk's barriers in the same
	// flight-recorder timeline as everything else.
	if cfg.Dir != "" {
		disk.OnBarrier(func(elapsed time.Duration, pages int64) {
			hp.bb.Span(obs.EvFileBarrier, elapsed, 0, uint64(pages), 0)
		})
	}

	hp.ckpt = recovery.NewCheckpointer(log, mem)

	hp.sgc.SetHooks(gc.Hooks{
		ForEachRoot: hp.forEachStableRoot,
		Relocate:    hp.relocate,
		LockShards:  hp.lockShardsForCopy,
	})
	mem.SetTrapHandler(hp.sgc.Trap)
	hp.sscan = concScan{hp: hp, c: hp.sgc, satb: &hp.sgc.Met.Conc.SATBGray,
		quantumEv: obs.EvSGCQuantum, label: "sgc-scan", retire: hp.finishStableGCLocked}

	if !cfg.Undivided {
		hp.vgc = gc.NewVolatile(mem, h, log, hp.volLo, hp.volHi)
		hp.vgc.SetRecorder(hp.bb)
		if hp.nurLo != 0 {
			hp.vgc.SetNursery(hp.nurLo, hp.nurHi)
		}
		hp.vgc.SetHooks(gc.VolatileHooks{
			ForEachRoot:       hp.forEachVolatileRoot,
			StableSlots:       hp.stableSlots,
			NewlyStable:       hp.newlyStable,
			AllocStable:       hp.allocStableForMove,
			Relocate:          hp.relocate,
			OnStableSlotFixed: hp.onStableSlotFixed,
		})
		hp.track = stability.New(h, hp.txm, locks, stability.Env{
			InVolatile: hp.inVolatile,
			AddLS:      hp.addLS,
			Forward:    hp.vscan.load,
		})
		hp.vscan = concScan{hp: hp, c: hp.vgc, satb: &hp.vgc.Met.Conc.SATBGray,
			quantumEv: obs.EvVGCQuantum, label: "vgc-scan", retire: hp.finishConcurrentLocked}
	}
	hp.register()
	return hp
}

func alignUp(a word.Addr, ps int) word.Addr {
	r := uint64(a) % uint64(ps)
	if r == 0 {
		return a
	}
	return a + word.Addr(uint64(ps)-r)
}

// format bootstraps a fresh heap: the stable root object is created by a
// system bootstrap transaction, then the first checkpoint is taken and its
// promotion marks the master formatted. The bootstrap commit is only
// spooled: the checkpoint's force makes both durable at once, so a first
// open forces the log once, and no kill leaves a log that holds records
// but no checkpoint. Until the promotion a kill leaves the master
// unformatted, so the next Open formats again (an empty log) or recovers
// from the log's first checkpoint — never a formatted master with no
// checkpoint to start from.
func (hp *Heap) format() {
	d := heap.NewDescriptor(0, hp.cfg.NumRoots, 0)
	addr, ok := hp.sgc.Alloc(d.SizeWords())
	if !ok {
		panic("core: stable area too small for the root object")
	}
	t := hp.txm.Begin()
	lsn := hp.txm.LogAlloc(t, addr, d)
	hp.h.SetDescriptor(addr, d, lsn)
	hp.rootObj = addr
	hp.txm.PrepareCommit(t)
	hp.txm.FinishCommit(t)
	if !hp.cfg.Undivided {
		hp.volRootObj = hp.allocVolRootObj()
	}
	hp.Checkpoint()
	hp.ckpt.ForcePromote()
}

// allocVolRootObj creates the (crash-transient) volatile root object.
func (hp *Heap) allocVolRootObj() word.Addr {
	d := heap.NewDescriptor(0, hp.cfg.NumRoots, 0)
	a, ok := hp.vgc.Alloc(d.SizeWords())
	if !ok {
		panic("core: volatile area too small for the root object")
	}
	hp.h.SetDescriptor(a, d, word.NilLSN)
	return a
}

// --- area predicates and hooks -----------------------------------------

func (hp *Heap) inVolatile(a word.Addr) bool {
	if hp.cfg.Undivided {
		return false
	}
	if a >= hp.volLo && a < hp.volHi {
		return true
	}
	return hp.nurLo != 0 && a >= hp.nurLo && a < hp.nurHi
}

func (hp *Heap) inNursery(a word.Addr) bool {
	return hp.nurLo != 0 && a >= hp.nurLo && a < hp.nurHi
}

// volatileEnd is the exclusive upper bound of volatile addresses (used by
// checkpoints so recovery's volatile predicate covers the nursery too).
func (hp *Heap) volatileEnd() word.Addr {
	if hp.nurHi != 0 {
		return hp.nurHi
	}
	return hp.volHi
}

func (hp *Heap) inStableArea(a word.Addr) bool {
	return a >= hp.stableLo && a < hp.stableHi
}

// isStableObject reports whether updates to the object at a must follow
// the WAL protocol: it lives in the stable area, or it is a newly stable
// (AS) object still at a volatile address.
func (hp *Heap) isStableObject(a word.Addr, d heap.Descriptor) bool {
	if hp.inStableArea(a) {
		return true
	}
	return d.AS()
}

// onStableSlotWrite maintains the remembered sets for logged pointer stores
// (wired into the transaction manager's env; the slot already holds the new
// value). Only slots that physically live in the stable area belong in
// SRem; slots inside AS objects still at volatile addresses are covered by
// the move scan — except that a logged store bypasses the volatile write
// barrier, so an aged slot that now holds a nursery pointer enters the
// nursery remembered set here.
func (hp *Heap) onStableSlotWrite(slot word.Addr, ptrToVolatile bool) {
	if !hp.inStableArea(slot) {
		if ptrToVolatile {
			hp.rememberNursery(slot, word.Addr(hp.mem.ReadWord(slot)))
		}
		return
	}
	hp.remMu.Lock()
	if ptrToVolatile {
		hp.srem[slot] = true
	} else {
		delete(hp.srem, slot)
	}
	hp.remMu.Unlock()
}

// relocate is every collector's hand-off (gc.Hooks.Relocate): undo
// translations, lock keys, LS entries, remembered slots and the history
// recorder's variables follow one cycle's moves, each table in one pass. A
// concurrent read barrier's transport calls it from a shared mutator action:
// remMu guards the remembered sets, txm and locks lock internally.
func (hp *Heap) relocate(ms word.Moves) {
	hp.met.RelocBatches.Inc()
	hp.met.RelocMoves.Add(uint64(len(ms)))
	hp.txm.Relocate(ms)
	hp.locks.Relocate(ms)
	for _, m := range ms {
		if hp.inStableArea(m.To) && !hp.inStableArea(m.From) {
			hp.dropLS(m.From) // newly stable, moved with the heap stopped
		}
	}
	if hp.hist != nil {
		hp.hist.Relocate(ms)
	}
	// Only a stable cycle moves srem's keys, stable-area slots; nrem's are
	// aged slots, and a collection that empties the nursery drains it first.
	hp.remMu.Lock()
	defer hp.remMu.Unlock()
	rem := hp.nrem
	if hp.inStableArea(ms[0].From) {
		rem = hp.srem
	}
	for slot := range rem {
		if to := ms.Translate(slot); to != slot {
			delete(rem, slot)
			rem[to] = true
		}
	}
}

// onStableSlotFixed maintains SRem membership for slots the volatile
// collector rewrote.
func (hp *Heap) onStableSlotFixed(slot, newPtr word.Addr, stillVolatile bool) {
	if !hp.inStableArea(slot) {
		return // a slot of an LS object still in the aged space
	}
	hp.remMu.Lock()
	if stillVolatile {
		hp.srem[slot] = true
	} else {
		delete(hp.srem, slot)
	}
	hp.remMu.Unlock()
}

// onVolatilePtrWrite is the volatile write barrier (wired into the
// transaction manager): it grays overwritten from-space values during a
// concurrent scan (snapshot-at-the-beginning deletion barrier) and
// registers aged slots that store nursery pointers in the nursery
// remembered set.
func (hp *Heap) onVolatilePtrWrite(slot, old, stored word.Addr) {
	hp.vscan.gray(old)
	hp.rememberNursery(slot, stored)
}

// rememberNursery enters slot in the nursery remembered set when it lies
// outside the nursery and now holds the nursery pointer stored.
func (hp *Heap) rememberNursery(slot, stored word.Addr) {
	if hp.inNursery(stored) && !hp.inNursery(slot) {
		hp.remMu.Lock()
		hp.nrem[slot] = true
		hp.remMu.Unlock()
		hp.vgc.Met.Nursery.BarrierHits.Inc()
	}
}

// newlyStable returns the LS set sorted (the collector drains it at minor
// collections and concurrent flips; sorting keeps log contents
// deterministic for a given history).
func (hp *Heap) newlyStable() []word.Addr {
	out := make([]word.Addr, 0, len(hp.ls))
	for a := range hp.ls {
		out = append(out, a)
	}
	slices.Sort(out)
	return out
}

// takeNRem drains the nursery remembered set, sorted. Every collection
// that empties the nursery also resets nrem: surviving targets are
// evacuated through the returned slots, and stale entries must not dangle
// into the reset space.
func (hp *Heap) takeNRem() []word.Addr {
	hp.remMu.Lock()
	out := make([]word.Addr, 0, len(hp.nrem))
	for a := range hp.nrem {
		out = append(out, a)
	}
	if len(hp.nrem) > 0 {
		hp.nrem = make(map[word.Addr]bool)
	}
	hp.remMu.Unlock()
	slices.Sort(out)
	return out
}

// stableSlots returns the remembered set sorted (volatile-GC roots).
func (hp *Heap) stableSlots() []word.Addr {
	out := make([]word.Addr, 0, len(hp.srem))
	for a := range hp.srem {
		out = append(out, a)
	}
	slices.Sort(out)
	return out
}

// allocStableForMove reserves stable space for an evacuated object; the
// caller (volatile collection) verified capacity beforehand.
func (hp *Heap) allocStableForMove(sizeWords int) word.Addr {
	a, ok := hp.sgc.AllocForMove(sizeWords)
	if !ok {
		panic("core: stable area exhausted during evacuation (ensureStableSpace bug)")
	}
	return a
}

// forEachStableRoot enumerates the stable collector's roots at a flip:
// transaction handles, undo-information pointer values, locked objects,
// the volatile root object's slots and every volatile-area slot that
// points into the stable area (the paper's stated cost of dividing the
// heap: the volatile area is scanned as a root set).
func (hp *Heap) forEachStableRoot(visit func(get func() word.Addr, set func(word.Addr))) {
	hp.txm.ForEachHandle(visit)
	hp.txm.ForEachUndoRoot(visit)
	for _, a := range hp.locks.LockedAddrs() {
		a := a
		// Locked objects are copied so their lock-table keys stay
		// valid; the rekey itself happens in relocate.
		visit(func() word.Addr { return a }, func(word.Addr) {})
	}
	if !hp.cfg.Undivided {
		hp.forEachVolatileSlot(visit)
	}
}

// forEachVolatileSlot walks every object in the volatile area — the
// current semispace's copy region and its high-end allocation region
// (populated by allocations made during a concurrent scan), plus the
// nursery — and visits its pointer slots. Rewrites are unlogged volatile
// state, except inside newly stable (AS) objects: recovery rebuilds those
// from their base record plus logged updates, so their slots are fixed by
// one SFix record per page, as the volatile collector fixes stable slots.
func (hp *Heap) forEachVolatileSlot(visit func(get func() word.Addr, set func(word.Addr))) {
	hp.sealChunks()
	ps := hp.mem.PageSize()
	var fixes []wal.PtrFix
	flush := func() {
		if len(fixes) == 0 {
			return
		}
		lsn := hp.log.Append(wal.SFixRec{Page: fixes[0].Addr.Page(ps), Fixes: fixes})
		for _, f := range fixes {
			hp.mem.WriteWord(f.Addr, uint64(f.NewPtr), lsn)
		}
		fixes = nil
	}
	walk := func(lo, hi word.Addr) {
		for a := lo; a < hi; {
			d := hp.h.Descriptor(a)
			for i := 0; i < d.NPtrs(); i++ {
				slot := a + word.Addr(heap.PtrOffset(i))
				visit(func() word.Addr { return word.Addr(hp.mem.ReadWord(slot)) }, func(na word.Addr) {
					if !d.AS() {
						hp.mem.WriteWord(slot, uint64(na), word.NilLSN)
						return
					}
					if len(fixes) > 0 && fixes[0].Addr.Page(ps) != slot.Page(ps) {
						flush()
					}
					fixes = append(fixes, wal.PtrFix{Addr: slot, NewPtr: na})
				})
			}
			a = a.Add(d.SizeWords())
		}
	}
	sp := hp.vgc.Current()
	walk(sp.Lo, sp.CopyPtr)
	walk(sp.AllocPtr, sp.Hi)
	if n := hp.vgc.Nursery(); n != nil {
		walk(n.Lo, n.CopyPtr)
	}
	flush()
}

// forEachVolatileRoot enumerates the volatile collector's roots: the
// volatile root object pointer, transaction handles, and undo-information
// pointer values.
func (hp *Heap) forEachVolatileRoot(visit func(get func() word.Addr, set func(word.Addr))) {
	visit(func() word.Addr { return hp.volRootObj }, func(a word.Addr) { hp.volRootObj = a })
	hp.txm.ForEachHandle(visit)
	hp.txm.ForEachUndoRoot(visit)
}

// --- collection scheduling ----------------------------------------------

// maybeStartStableGC flips when free stable space runs low. While a
// concurrent volatile scan is in flight the trigger is deferred: a stable
// flip scans the volatile area as roots, and live objects still in the
// volatile from-space would be missed. finishConcurrentLocked re-checks
// the trigger when the scan retires.
func (hp *Heap) maybeStartStableGC() {
	if hp.sgc.Active() || hp.vscan.on.Load() {
		return
	}
	if float64(hp.sgc.FreeWords()) >= gcTriggerFraction*float64(hp.cfg.StableWords) {
		return
	}
	hp.startStableGC()
}

func (hp *Heap) startStableGC() {
	// A stable flip walks the volatile area as a root set; the walk only
	// sees the current semispace and nursery, so an in-flight concurrent
	// scan (with live objects still in volatile from-space) must retire
	// first.
	hp.finishConcurrentLocked()
	hp.rootObj = hp.sgc.StartCollection(hp.rootObj)
	if hp.sgc.ConcurrentActive() {
		hp.sscan.start()
	}
}

// collectStableLocked runs (or finishes) a full stable collection inline.
func (hp *Heap) collectStableLocked() {
	if !hp.sgc.Active() {
		hp.startStableGC()
	}
	hp.finishStableGCLocked()
}

// quiesceStableGC finishes an active stable collection ahead of LS moves,
// which allocate at the stable copy frontier — unless it is a *concurrent*
// one: that keeps running, the moves allocate at the high end of to-space,
// which the scan never visits, and finishing it here would reintroduce
// exactly the stall the mode removes.
func (hp *Heap) quiesceStableGC() {
	if hp.sgc.Active() && !hp.sgc.ConcurrentActive() {
		hp.sgc.Finish()
	}
}

// pace is the one pacing call: an operation on an op-paced collector
// (gc.Mode.OpPaced) donates one scan quantum to the active collection — the
// paper's "the mutator calls the collector to do some work", §3.2. The
// trap-driven collector advances through its traps, a concurrent one through
// its collector goroutine and the commit assist; operations run shared
// there and must not scan.
func (hp *Heap) pace() {
	if hp.cfg.StableGC.OpPaced() && hp.sgc.Active() {
		hp.sgc.Step()
	}
}

// addLS enters the newly stable object at a, of size words, in the LS set.
func (hp *Heap) addLS(a word.Addr, words int) {
	hp.ls[a] = words
	hp.lsWords += words
	if hp.inNursery(a) {
		hp.lsNurseryWords += words
	}
}

// dropLS removes a from the LS set if it is there.
func (hp *Heap) dropLS(a word.Addr) {
	words, ok := hp.ls[a]
	if !ok {
		return
	}
	delete(hp.ls, a)
	hp.lsWords -= words
	if hp.inNursery(a) {
		hp.lsNurseryWords -= words
	}
}

// clearLS empties the LS set.
func (hp *Heap) clearLS() {
	hp.ls = make(map[word.Addr]int)
	hp.lsWords, hp.lsNurseryWords = 0, 0
}

// ensureStableSpace guarantees the stable allocator can absorb needWords
// (finishing or running a collection if necessary).
func (hp *Heap) ensureStableSpace(needWords int) error {
	if hp.sgc.FreeWords() >= needWords {
		return nil
	}
	hp.collectStableLocked()
	if hp.sgc.FreeWords() < needWords {
		return ErrHeapFull
	}
	return nil
}

// collectVolatile runs a volatile collection, first guaranteeing stable
// space for the pending LS moves. With ConcurrentVGC it performs only the
// stop-the-world flip and hands the copying scan to a collector goroutine;
// otherwise (and whenever the nursery cannot be emptied first) it falls
// back to the original stop-the-world collection, after which the LS set
// is cleared (dead entries died with the collection).
func (hp *Heap) collectVolatile() error {
	// One volatile collection at a time: a scan still in flight retires
	// inline before the next one starts.
	hp.finishConcurrentLocked()
	hp.sealChunks()
	if err := hp.ensureStableSpace(hp.lsWords); err != nil {
		return err
	}
	hp.quiesceStableGC()
	if hp.cfg.ConcurrentVGC {
		// The flip requires an empty nursery (the concurrent scan never
		// visits it): run a minor collection first when possible.
		if hp.vgc.NurseryUsedWords() > 0 && hp.vgc.CanMinor() {
			hp.vgc.CollectNursery(hp.takeNRem())
			hp.nurseryEmptied()
		}
		if hp.vgc.NurseryUsedWords() == 0 {
			hp.takeNRem() // stale entries must not dangle across the flip
			hp.vgc.StartConcurrent()
			hp.vscan.start()
			return nil
		}
		// Nursery could not be emptied (aged space too full): the full
		// stop-the-world collection below absorbs it.
	}
	// The stop-the-world collection empties the nursery and rewrites every
	// live slot during its Cheney scan, so the nursery remembered set is
	// dead weight: drain it up front (it is discarded either way, and no
	// mutator can repopulate it under the exclusive latch) rather than
	// have relocate rebase its entries.
	hp.takeNRem()
	hp.vgc.Collect()
	hp.nurseryEmptied()
	hp.clearLS()
	// Evacuations consumed stable space; if it is running low, start an
	// incremental stable collection now so it finishes before the space
	// is needed (rather than a forced stop-the-world later).
	hp.maybeStartStableGC()
	return nil
}

// collectNursery runs a minor collection (falling back to a full volatile
// collection when the aged space cannot absorb the nursery), first
// guaranteeing stable space for the nursery's pending LS moves.
func (hp *Heap) collectNursery() error {
	hp.sealChunks()
	if !hp.vgc.CanMinor() {
		return hp.collectVolatile()
	}
	if need := hp.lsNurseryWords; need > 0 {
		if hp.sgc.FreeWords() < need {
			// Growing stable space means stable-GC work, which must
			// not overlap a concurrent scan.
			hp.finishConcurrentLocked()
			if err := hp.ensureStableSpace(need); err != nil {
				return err
			}
		}
		hp.quiesceStableGC()
	}
	hp.vgc.CollectNursery(hp.takeNRem())
	hp.nurseryEmptied()
	hp.maybeStartStableGC()
	// Proactive pacing: a minor collection can promote up to one nursery
	// limit of words, and CanMinor fails once aged free space drops below
	// that — the stop-the-world fallback at exactly the moment pressure
	// peaks. Starting the full collection while two minors of headroom
	// remain lets the flip take the concurrent path (the nursery is empty
	// right now) and gives the scan a whole minor interval to finish.
	if hp.cfg.ConcurrentVGC && !hp.vgc.ConcurrentActive() &&
		hp.vgc.FreeWords() < 2*hp.vgc.NurseryLimitWords() {
		return hp.collectVolatile()
	}
	return nil
}

// --- public transaction API ----------------------------------------------

// Begin starts a transaction. Transactions are serializable (strict
// two-phase read/write locking) and total (commit makes every effect
// durable; abort removes every effect). A Tx is owned by one goroutine;
// different transactions may run concurrently.
func (hp *Heap) Begin() *Tx {
	excl := hp.rlock()
	defer hp.runlock(excl)
	t := &Tx{hp: hp, t: hp.txm.Begin()}
	if hp.hist != nil {
		hp.hist.Begin(t.t.ID())
	}
	hp.bb.Record(obs.EvTxBegin, uint64(t.t.ID()), 0, 0)
	return t
}

// SetHistoryRecorder installs a histcheck recorder that observes every
// begin, read, write, commit and abort (and follows objects across
// collector moves). Install before any concurrent use; pass nil to detach.
func (hp *Heap) SetHistoryRecorder(r *histcheck.Recorder) {
	hp.lockExclusive()
	defer hp.unlockExclusive()
	hp.hist = r
}

// fail records a sticky conflict error.
func (t *Tx) fail(err error) error {
	t.err = err
	return err
}

// ok verifies the transaction can run another action.
func (t *Tx) ok() error {
	if t.t.Status() != tx.Active {
		return ErrTxDone
	}
	return t.err
}

// Err returns the transaction's sticky error (set by a conflict), if any.
func (t *Tx) Err() error { return t.err }

// ID returns the transaction id.
func (t *Tx) ID() word.TxID { return t.t.ID() }

// Alloc creates an object with nptrs pointer fields (nil) and ndata zero
// data words, tagged with the caller's typeID, returning a registered
// reference. New objects are volatile until a committing transaction makes
// them reachable from a stable root (divided mode), or stable from birth
// (all-stable mode). A volatile object the nursery can hold comes from the
// transaction's allocation chunk without stopping the heap (chunk.go); the
// heap stops to refill the chunk and for everything else.
func (t *Tx) Alloc(typeID uint16, nptrs, ndata int) (*Ref, error) {
	if err := t.ok(); err != nil {
		return nil, err
	}
	hp := t.hp
	d := heap.NewDescriptor(typeID, nptrs, ndata)
	size := d.SizeWords()
	// An object that fits the chunk's free room goes there. Whether the
	// nursery can hold it at all is read with the heap stopped: a minor
	// grows the soft cap NurseryFits reads.
	if hp.nurLo != 0 {
		if r := t.bump(d); r != nil {
			return r, nil
		}
	}
	// Past the chunk, allocation bumps a collector frontier and may trigger
	// a collection: an exclusive action.
	hp.lockExclusive()
	defer hp.unlockExclusive()
	if hp.cfg.Undivided {
		hp.maybeStartStableGC()
		a, ok := hp.sgc.Alloc(size)
		if !ok {
			if err := hp.ensureStableSpace(size); err != nil {
				return nil, t.fail(err)
			}
			if a, ok = hp.sgc.Alloc(size); !ok {
				return nil, t.fail(ErrHeapFull)
			}
		}
		lsn := hp.txm.LogAlloc(t.t, a, d)
		hp.h.SetDescriptor(a, d, lsn)
		hp.zeroObject(a, d, lsn)
		hp.pace()
		return hp.txm.Register(t.t, a), nil
	}
	// New volatile objects are born in the nursery when one is configured
	// and the object fits; a full nursery triggers a minor collection.
	// Oversized objects and nursery overflow that a minor cannot fix go to
	// the aged semispace.
	if hp.vgc.NurseryFits(size) {
		placed, err := t.refill(size)
		if err != nil {
			return nil, t.fail(err)
		}
		if placed {
			return t.place(d, true), nil
		}
	}
	a, ok := hp.vgc.Alloc(size)
	if !ok {
		if err := hp.collectVolatile(); err != nil {
			return nil, t.fail(err)
		}
		if a, ok = hp.vgc.Alloc(size); !ok {
			return nil, t.fail(ErrHeapFull)
		}
	}
	hp.h.SetDescriptor(a, d, word.NilLSN)
	hp.zeroObject(a, d, word.NilLSN)
	// Birth lock: the address is fresh, so the write lock is always free;
	// holding it from here to the transaction's end lets writes through the
	// returned Ref skip the lock and keep no undo (DESIGN.md §11, "Born
	// objects"). A chunk's objects hold theirs through its birth range.
	born := hp.locks.TryAcquire(t.t.ID(), a, lock.Write) == nil
	hp.pace()
	if born {
		return hp.txm.RegisterBorn(t.t, a, d), nil
	}
	return hp.txm.Register(t.t, a), nil
}

// zeroObject clears an object's fields (allocation initializes to
// nil/zero).
func (hp *Heap) zeroObject(addr word.Addr, d heap.Descriptor, lsn word.LSN) {
	hp.mem.Zero(addr.Add(1), word.WordsToBytes(d.SizeWords()-1), lsn)
}

// descriptorOf reads an object's descriptor through the read barrier.
func (hp *Heap) descriptorOf(a word.Addr) heap.Descriptor {
	hp.mem.EnsureAccessible(a, word.WordSize)
	return hp.h.Descriptor(a)
}

// rootAddr names the stable root object for access. Only the action latch
// keeps the address still, so it is read under it.
func (hp *Heap) rootAddr() word.Addr { return hp.rootObj }

// field is what an operation acts on, resolved by access and ready to touch.
type field struct {
	excl  bool            // the action holds the latch exclusively
	born  bool            // the object was born in the transaction (Ref.BornIn)
	fresh bool            // ... and is still in its allocation chunk
	obj   word.Addr       // the object's current address
	d     heap.Descriptor // its descriptor
	slot  word.Addr       // the named word's address (NilAddr for wholeObject)
}

// slotKind says which word of its object an operation names.
type slotKind uint8

const (
	wholeObject slotKind = iota // the descriptor alone (Shape)
	ptrSlot                     // pointer field i
	dataSlot                    // data word i
)

// access is the one path every object operation takes, and it is one
// indivisible action under the latch: the transaction must be live; the
// object read() names — through r, or the stable root object when r is
// nil — is read once and locked in mode m unless it was born in the
// transaction, which has held its write lock since Alloc; then its
// descriptor is read through the read barrier, word i of kind k is
// bounds-checked against it and made accessible through the barrier too,
// and fn runs on it. An object still in the transaction's chunk is fresh:
// its descriptor is the shape r carries and no barrier applies, since only
// the stable collector protects pages. A word access is then recorded for
// the history checker (rec is the Recorder method for its kind) and paces
// the collector; wholeObject touches no word and does neither.
//
// The lock is try-acquired under the latch, so the lock table only ever
// names current addresses and a flip's Rekey never meets a stale entry. On
// contention the action lets go of the latch, waits for the lock outside it
// — the holder may need the latch to finish its work — and starts over.
// While blocked the transaction is in the lock manager's waits-for graph; a
// timeout, or a deadlock that picks it as victim, fails it fast with
// ErrConflict (aborting it releases its locks). A lock held when the object
// later moves follows it: the collector rekeys the table on every copy.
func (t *Tx) access(read func() word.Addr, r *Ref, m lock.Mode, k slotKind, i int,
	rec func(*histcheck.Recorder, word.TxID, word.Addr), fn func(f field)) error {
	if err := t.ok(); err != nil {
		return err
	}
	hp := t.hp
	born := r.BornIn(t.t)
	// Lock-wait timing starts lazily on the first contention: the
	// uncontended fast path takes no clock readings.
	var waitStart, deadline time.Time
	for {
		var busy word.Addr // the object whose lock was not free
		err := func() error {
			// Deferred unlock: a device fault anywhere in the action
			// (internal/faultfs) must release the latch and fail the heap.
			f := field{excl: hp.rlock(), born: born}
			defer hp.runlock(f.excl)
			f.obj = read()
			if !born {
				if hp.locks.TryAcquire(t.t.ID(), f.obj, m) != nil {
					busy = f.obj
					return nil
				}
				if !waitStart.IsZero() {
					hp.met.LockWait.Since(waitStart)
				}
			}
			if f.fresh = born && t.chunk.holds(f.obj); f.fresh {
				f.d = r.Shape()
			} else {
				f.d = hp.descriptorOf(f.obj)
			}
			switch k {
			case wholeObject:
				fn(f)
				return nil
			case ptrSlot:
				if i < 0 || i >= f.d.NPtrs() {
					return fmt.Errorf("core: pointer index %d out of range [0,%d)", i, f.d.NPtrs())
				}
				f.slot = f.obj + word.Addr(heap.PtrOffset(i))
			case dataSlot:
				if i < 0 || i >= f.d.NData() {
					return fmt.Errorf("core: data index %d out of range [0,%d)", i, f.d.NData())
				}
				f.slot = f.obj + word.Addr(heap.DataOffset(f.d.NPtrs(), i))
			}
			if !f.fresh {
				hp.mem.EnsureAccessible(f.slot, word.WordSize)
			}
			fn(f)
			if hp.hist != nil {
				rec(hp.hist, t.t.ID(), f.obj)
			}
			hp.pace()
			return nil
		}()
		if busy == word.NilAddr {
			return err
		}
		if waitStart.IsZero() {
			waitStart = time.Now()
		}
		if hp.cfg.LockWait == 0 {
			hp.met.LockWait.Since(waitStart)
			return t.fail(ErrConflict)
		}
		now := time.Now()
		if deadline.IsZero() {
			deadline = now.Add(hp.cfg.LockWait)
		} else if now.After(deadline) {
			hp.met.LockWait.Since(waitStart)
			return t.fail(ErrConflict)
		}
		if werr := hp.locks.WaitFree(t.t.ID(), busy, m, deadline.Sub(now)); werr != nil {
			hp.met.LockWait.Since(waitStart)
			return t.fail(ErrConflict)
		}
	}
}

// loadPtr is the mutator's one pointer load: the word at slot, passed
// through each collector's load barrier — the stable collector's (a Baker
// or concurrent transport; the identity under page protection, where the
// trap already rewrote the page) and the concurrent volatile scan's — so an
// operation never hands out, and so never stores, a from-space address.
func (hp *Heap) loadPtr(slot word.Addr) word.Addr {
	return hp.forward(word.Addr(hp.mem.ReadWord(slot)))
}

// forward passes a loaded pointer through both collectors' load barriers.
func (hp *Heap) forward(p word.Addr) word.Addr { return hp.vscan.load(hp.sgc.Load(p)) }

// storePtr is the mutator's one pointer store: the logged or unlogged write
// under the slot's writer stripe, then the stability bookkeeping — a
// volatile target stored into stable state is a candidate for commit-time
// tracking.
func (t *Tx) storePtr(f field, val *Ref) {
	hp := t.hp
	var v word.Addr
	if val != nil {
		v = val.Addr()
	}
	sh := t.lockPage(f.excl, f.slot)
	hp.writeWordAction(t, f, uint64(v), true)
	sh.unlock()
	if val != nil && hp.isStableObject(f.obj, f.d) && hp.inVolatile(v) {
		t.cands = append(t.cands, hp.txm.Register(t.t, v))
	}
}

// ref registers p with the transaction (a nil Ref for a nil pointer).
func (t *Tx) ref(p word.Addr) *Ref {
	if p.IsNil() {
		return nil
	}
	return t.hp.txm.Register(t.t, p)
}

// Ptr reads pointer field i of the referenced object, returning a new
// registered reference (nil Ref for a nil pointer).
func (t *Tx) Ptr(r *Ref, i int) (out *Ref, err error) {
	err = t.access(r.Addr, r, lock.Read, ptrSlot, i, (*histcheck.Recorder).Read, func(f field) {
		out = t.ref(t.hp.loadPtr(f.slot))
	})
	return out, err
}

// Data reads data word j of the referenced object.
func (t *Tx) Data(r *Ref, j int) (v uint64, err error) {
	err = t.access(r.Addr, r, lock.Read, dataSlot, j, (*histcheck.Recorder).Read, func(f field) {
		v = t.hp.mem.ReadWord(f.slot)
	})
	return v, err
}

// SetPtr stores val (which may be nil) into pointer field i.
func (t *Tx) SetPtr(r *Ref, i int, val *Ref) error {
	return t.access(r.Addr, r, lock.Write, ptrSlot, i, (*histcheck.Recorder).Write, func(f field) {
		t.storePtr(f, val)
	})
}

// SetData stores v into data word j.
func (t *Tx) SetData(r *Ref, j int, v uint64) error {
	return t.access(r.Addr, r, lock.Write, dataSlot, j, (*histcheck.Recorder).Write, func(f field) {
		sh := t.lockPage(f.excl, f.slot)
		t.hp.writeWordAction(t, f, v, false)
		sh.unlock()
	})
}

// writeWordAction dispatches a word store to f.slot to the logged or
// unlogged path; an unlogged store into an object born in the transaction
// keeps no undo, and one into a fresh object passes no barrier either. During a concurrent stable scan it is also the
// snapshot-at-the-beginning deletion barrier for stable pointer slots: the
// overwritten value is grayed before the update, so a from-space target
// deleted from an unscanned (gray) object is still evacuated — and an abort
// restoring the old value through the undo translation table lands on the
// evacuated copy, never a from-space address.
func (hp *Heap) writeWordAction(t *Tx, f field, v uint64, isPtr bool) {
	if f.fresh {
		hp.txm.FreshWrite(t.t, f.slot, v)
		return
	}
	if !hp.isStableObject(f.obj, f.d) {
		hp.txm.VolatileWrite(t.t, f.slot, v, isPtr, f.born)
		return
	}
	if isPtr && hp.sscan.on.Load() {
		hp.sscan.gray(word.Addr(hp.mem.ReadWord(f.slot)))
	}
	// The redo image escapes into the log record; only this path pays for it.
	var buf [word.WordSize]byte
	word.PutWord(buf[:], 0, v)
	hp.txm.Update(t.t, f.obj, f.slot, buf[:], isPtr)
}

// AddData atomically adds delta (wrapping) to data word j — the logical
// update of §2.2.4: no before-image is logged, and its undo is the negated
// delta applied wherever the object lives, so counters and balances cost a
// third of a physical update's log traffic. Volatile objects fall back to
// the ordinary in-memory-undo path.
func (t *Tx) AddData(r *Ref, j int, delta uint64) error {
	return t.access(r.Addr, r, lock.Write, dataSlot, j, (*histcheck.Recorder).ReadWrite, func(f field) {
		hp := t.hp
		sh := t.lockPage(f.excl, f.slot)
		switch {
		case f.fresh:
			hp.txm.FreshWrite(t.t, f.slot, hp.mem.ReadWord(f.slot)+delta)
		case hp.isStableObject(f.obj, f.d):
			hp.txm.UpdateLogical(t.t, f.obj, f.slot, delta)
		default:
			hp.txm.VolatileWrite(t.t, f.slot, hp.mem.ReadWord(f.slot)+delta, false, f.born)
		}
		sh.unlock()
	})
}

// SetDataBytes stores b into consecutive data words starting at word j
// (padded with zeros to a word boundary); the object needs
// (len(b)+7)/8 data words from j. A convenience for string-ish payloads.
func (t *Tx) SetDataBytes(r *Ref, j int, b []byte) error {
	for off := 0; off < len(b); off += 8 {
		var w [8]byte
		copy(w[:], b[off:])
		var v uint64
		for k := 7; k >= 0; k-- {
			v = v<<8 | uint64(w[k])
		}
		if err := t.SetData(r, j+off/8, v); err != nil {
			return err
		}
	}
	return nil
}

// DataBytes reads n bytes of data words starting at word j (the inverse of
// SetDataBytes).
func (t *Tx) DataBytes(r *Ref, j, n int) ([]byte, error) {
	out := make([]byte, 0, n)
	for off := 0; off < n; off += 8 {
		v, err := t.Data(r, j+off/8)
		if err != nil {
			return nil, err
		}
		for k := 0; k < 8 && off+k < n; k++ {
			out = append(out, byte(v>>(8*k)))
		}
	}
	return out, nil
}

// Shape returns the referenced object's type id, pointer count and data
// count.
func (t *Tx) Shape(r *Ref) (typeID uint16, nptrs, ndata int, err error) {
	err = t.access(r.Addr, r, lock.Read, wholeObject, 0, nil, func(f field) {
		typeID, nptrs, ndata = f.d.TypeID(), f.d.NPtrs(), f.d.NData()
	})
	return typeID, nptrs, ndata, err
}

// Root returns stable root slot i (nil Ref if unset). Stable roots are the
// programmer-designated global roots whose reachable closure survives
// crashes.
func (t *Tx) Root(i int) (out *Ref, err error) {
	err = t.access(t.hp.rootAddr, nil, lock.Read, ptrSlot, i, (*histcheck.Recorder).Read, func(f field) {
		out = t.ref(t.hp.loadPtr(f.slot))
	})
	return out, err
}

// SetRoot stores val into stable root slot i: this is how objects become
// reachable from stable state. Any volatile objects made reachable by this
// store become stable when the transaction commits.
func (t *Tx) SetRoot(i int, val *Ref) error {
	return t.access(t.hp.rootAddr, nil, lock.Write, ptrSlot, i, (*histcheck.Recorder).Write, func(f field) {
		t.storePtr(f, val)
	})
}

// volRoot is the volatile roots' counterpart of access: no object lock and no
// descriptor (the volatile root object is unlocked, unlogged state sized by
// NumRoots), just the latch, the bounds check and fn on slot i.
func (t *Tx) volRoot(i int, fn func(excl bool, slot word.Addr)) error {
	if err := t.ok(); err != nil {
		return err
	}
	hp := t.hp
	if hp.cfg.Undivided {
		return errors.New("core: volatile roots need a divided heap")
	}
	excl := hp.rlock()
	defer hp.runlock(excl)
	if i < 0 || i >= hp.cfg.NumRoots {
		return fmt.Errorf("core: root index %d out of range", i)
	}
	fn(excl, hp.volRootObj+word.Addr(heap.PtrOffset(i)))
	return nil
}

// VolRoot returns volatile root slot i. Volatile roots are global but do
// not survive crashes (e.g. caches, session state).
func (t *Tx) VolRoot(i int) (out *Ref, err error) {
	err = t.volRoot(i, func(excl bool, slot word.Addr) {
		// No lock orders this read after a concurrent SetVolRoot: the
		// slot's writer stripe does. The barriers run after it, since a
		// transport takes stripes of its own.
		sh := t.hp.lockShard(excl, slot)
		p := word.Addr(t.hp.mem.ReadWord(slot))
		sh.unlock()
		out = t.ref(t.hp.forward(p))
	})
	return out, err
}

// SetVolRoot stores val into volatile root slot i (unlogged; undone on
// abort).
func (t *Tx) SetVolRoot(i int, val *Ref) error {
	return t.volRoot(i, func(excl bool, slot word.Addr) {
		var v word.Addr
		if val != nil {
			v = val.Addr()
		}
		sh := t.hp.lockShard(excl, slot)
		t.hp.txm.VolatileWrite(t.t, slot, uint64(v), true, false)
		sh.unlock()
	})
}

// Commit runs stability tracking for the transaction's newly reachable
// volatile objects, writes the commit record, and returns once a log force
// has covered it. On a tracking conflict the transaction is aborted and
// ErrConflict returned.
//
// The commit record is appended under the stop latch: shared for a plain
// commit — no sticky error, not prepared, no stability candidates — so
// independent transactions commit in parallel; exclusive for tracking
// (which moves object images into the log and mutates the LS set), failed
// commits (undo writes anywhere) and 2PC commits. The force is then waited
// for with no latch held (finishCommit). Object locks are held throughout,
// so isolation is unchanged.
func (t *Tx) Commit() error {
	if t.t.Status() != tx.Active {
		return ErrTxDone
	}
	hp := t.hp
	start := time.Now()
	hp.commitGate.RLock()
	defer hp.commitGate.RUnlock()
	var lsn word.LSN
	if t.err != nil || t.t.Prepared() || (hp.track != nil && len(t.cands) > 0) {
		var err error
		if lsn, err = t.commitExclusive(start, hp.txm.PrepareCommit); err != nil {
			return err
		}
	} else {
		// The latched sections use deferred unlocks: commit touches the log
		// device, which an I/O error under it (internal/faultfs) can fail
		// with a typed panic, and the latch must unwind with it.
		func() {
			excl := hp.rlock()
			defer hp.runlock(excl)
			lsn = hp.txm.PrepareCommit(t.t)
		}()
	}
	hp.finishCommit(t.t, lsn)
	d := time.Since(start)
	hp.met.TxCommit.Observe(uint64(d))
	hp.bb.Span(obs.EvTxCommit, d, uint64(t.t.ID()), 0, 0)
	hp.vscan.assist()
	hp.sscan.assist()
	return nil
}

// finishCommit is the unlatched tail of every commit: wait until a force
// covers the commit record at lsn — overlapping committers share it, and a
// leader joins the siblings the workload says are coming
// (wal.Manager.ForceCommit), while nobody's action queues behind it — then
// release the locks under the shared latch. It logs nothing: the commit
// record is the transaction's last. A transaction that logged nothing has
// no commit record (lsn is NilLSN) and waits for no force. A device fault
// in the force fail-stops the heap (failStop).
func (hp *Heap) finishCommit(t *tx.Tx, lsn word.LSN) {
	defer hp.failStop()
	if lsn != word.NilLSN {
		usualOpen, span := hp.txm.CommitShape()
		hp.log.ForceCommit(lsn, usualOpen, span)
		hp.ckpt.Promote()
	}
	excl := hp.rlock()
	defer hp.runlock(excl)
	hp.txm.FinishCommit(t)
	if hp.hist != nil {
		hp.hist.Commit(t.ID())
	}
}

// commitExclusive is the stop-the-heap first step of a commit or a prepare:
// stability tracking and prepared (2PC) commits. A transaction with a
// sticky error is aborted instead. It returns the LSN of the record
// logOutcome (PrepareCommit, Prepare) wrote, or the error the transaction
// was aborted with.
func (t *Tx) commitExclusive(start time.Time, logOutcome func(*tx.Tx) word.LSN) (word.LSN, error) {
	if t.err != nil {
		t.Abort()
		return 0, t.err
	}
	hp := t.hp
	hp.lockExclusive()
	defer hp.unlockExclusive()
	cands := t.cands
	t.cands = nil
	if hp.track != nil && !t.t.Prepared() {
		if err := hp.track.Track(t.t, cands, t.chunk.holds); err != nil {
			hp.txm.Abort(t.t)
			if hp.hist != nil {
				hp.hist.Abort(t.t.ID())
			}
			wait := time.Since(start)
			hp.met.TxConflict.Observe(uint64(wait))
			hp.bb.Span(obs.EvTxConflict, wait, uint64(t.t.ID()), 0, 0)
			return 0, t.fail(ErrConflict)
		}
	}
	return logOutcome(t.t), nil
}

// Prepare runs stability tracking and writes a forced prepare record: the
// participant side of two-phase commit. The transaction's effects are then
// durable but undecided — locks stay held, and if the system crashes the
// transaction is restored in-doubt at recovery, awaiting ResolveCommit or
// ResolveAbort (the coordinator's decision). After Prepare only Commit or
// Abort are legal.
func (t *Tx) Prepare() error {
	if t.t.Status() != tx.Active {
		return ErrTxDone
	}
	hp := t.hp
	lsn, err := t.commitExclusive(time.Now(), hp.txm.Prepare)
	if err != nil {
		return err
	}
	// Like a commit, the prepare force is waited for with no latch held.
	defer hp.failStop()
	hp.log.Force(lsn)
	hp.ckpt.Promote()
	return nil
}

// Abort rolls the transaction back: logged updates are undone in place
// with compensation records; unlogged volatile writes are undone from
// memory.
func (t *Tx) Abort() error {
	if t.t.Status() != tx.Active {
		return ErrTxDone
	}
	hp := t.hp
	start := time.Now()
	// Abort undoes updates in place, anywhere in the heap: exclusive.
	hp.lockExclusive()
	defer hp.unlockExclusive()
	hp.txm.Abort(t.t)
	if hp.hist != nil {
		hp.hist.Abort(t.t.ID())
	}
	hp.met.TxAbort.Since(start)
	hp.bb.Record(obs.EvTxAbort, uint64(t.t.ID()), 0, 0)
	return nil
}
