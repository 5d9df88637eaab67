// Package gc implements the paper's garbage collectors:
//
//   - the atomic copying collector of the stable area, whose copy steps and
//     scan steps follow the write-ahead log protocol so that a crash at any
//     instant — including mid-collection — is recoverable. It is one
//     machine (flip, forward, scan, finish) run in one of five Modes: the
//     zero Mode is the paper's collector, each other Mode one ablation or
//     extension of it;
//   - a plain, unlogged copying collector for the volatile area of the
//     divided heap (Ch. 5), including the evacuation of newly stable
//     objects into the stable area (volatile.go).
//
// The collector does not know about transactions or the stable/volatile
// division; it is parameterized by Hooks that the stable-heap core wires to
// the transaction manager (root handles, undo-address translation) and the
// lock manager (rekeying).
package gc

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"stableheap/internal/heap"
	"stableheap/internal/obs"
	"stableheap/internal/vm"
	"stableheap/internal/wal"
	"stableheap/internal/word"
)

// Mode names the stable collector: what stands between the mutator and an
// in-progress collection, and who advances the scan. The modes share every
// logged step; a Mode only decides what the flip arms and who calls the
// scanner.
type Mode uint8

// The stable collectors.
const (
	// Ellis is the paper's collector (Ch. 3) and the zero value: the flip
	// protects all of to-space, a trapped access scans the whole page
	// (§3.2.1), and every heap operation donates one scan quantum (§3.2).
	Ellis Mode = iota
	// EllisTrapDriven arms the same page protection but takes no quanta
	// from operations: the scan advances only through traps (and explicit
	// Step calls) — the purely trap-driven flavor the barrier experiments
	// measure.
	EllisTrapDriven
	// Baker checks every pointer the mutator loads and transports the
	// target if it is in from-space (§3.8); no page is protected and the
	// scan is slot-granular. Operations pace it like Ellis.
	Baker
	// StopTheWorld runs every collection to completion inside the flip, so
	// the mutator never observes one in progress: the author's earlier
	// atomic collector, the pause-time baseline (E3).
	StopTheWorld
	// Concurrent leaves the scan to a collector goroutine (concurrent.go):
	// no page is protected, every pointer load transports under transMu,
	// and overwritten pointers are grayed. The extension of E22.
	Concurrent
)

var modeNames = [...]string{"ellis", "ellis-trap-driven", "baker", "stop-the-world", "concurrent"}

func (m Mode) String() string {
	if !m.Valid() {
		return fmt.Sprintf("gc.Mode(%d)", uint8(m))
	}
	return modeNames[m]
}

// Valid reports whether m names a collector.
func (m Mode) Valid() bool { return int(m) < len(modeNames) }

// OpPaced reports whether heap operations donate scan quanta to an active
// collection (the paper's "the mutator calls the collector to do some
// work", §3.2).
func (m Mode) OpPaced() bool { return m == Ellis || m == Baker }

// protects reports whether the flip arms the page-protection read barrier.
func (m Mode) protects() bool { return m == Ellis || m == EllisTrapDriven }

// FillerType is the descriptor type id of gap-filler pseudo-objects the
// Ellis collector plants when it rounds the copy pointer up to a page
// boundary (so to-space stays parseable).
const FillerType uint16 = 0xffff

// The incremental quanta: how many unscanned pages a Step call (and a
// trap's scan-ahead) sweeps under page protection, and how many to-space
// words a Baker-mode Step scans.
const (
	stepPages = 1
	stepWords = 128
)

// Config parameterizes a collector.
type Config struct {
	// Mode selects the collector; the zero value is the paper's.
	Mode Mode
	// CopyContents makes copy records carry the full object image (the
	// E14 ablation of the paper's content-free copy records): replay
	// becomes self-contained — no from-space reads, no GCEnd write-back
	// — at the price of logging every copied byte.
	CopyContents bool
}

// Hooks connect the collector to the rest of the system.
type Hooks struct {
	// ForEachRoot visits every root slot at a flip: registered
	// transaction handles, the global root object pointer, locked-object
	// addresses, and (for the divided heap) volatile-area slots that
	// point into the stable area. visit reads a slot with get and, if
	// the collector moved the target, rewrites it with set.
	ForEachRoot func(visit func(get func() word.Addr, set func(word.Addr)))
	// Relocate receives the copy steps queued since the last call (handOff);
	// the core rekeys locks, updates per-transaction undo translations, and
	// rebases remembered-set entries. The batch is only valid for the call.
	Relocate func(ms word.Moves)
	// LockShards pins the writer shards covering the to-space pages of
	// [to, to+sizeWords) for a transport's logged copy (concurrent mode
	// only). A mutator update holds its page's shard across the
	// {log append, memory write} pair; the transport must do the same, or
	// a page could flush carrying the update's newer pageLSN but not the
	// copy's bytes, and conditional redo would skip the copy record.
	LockShards func(to word.Addr, sizeWords int) (unlock func())
}

// handOff delivers the moves a collector queued since its last hand-off to
// the core's Relocate hook, sorted by source, and empties the queue. Every
// scan, flip and transport ends with it — inside what its entry point times,
// deferred where a device fault can cut a scan short — so control returns to
// mutators with every table current and a batch never spans two cycles.
func handOff(q *word.Moves, relocate func(word.Moves)) {
	if len(*q) > 0 && relocate != nil {
		slices.SortFunc(*q, func(a, b word.Move) int { return cmp.Compare(a.From, b.From) })
		relocate(*q)
	}
	*q = (*q)[:0]
}

// Metrics counts stable-collector work. The pause histograms (flip, scan
// step, trap) are always on: recording is a few atomic adds, so there is no
// measurement mode to forget — every run yields the E3 pause table. Conc
// counts mostly-concurrent work (scan quanta on the collector goroutine or
// a commit assist, transports on mutator load paths, and the core's SATB
// deletion-barrier hits); it is registered only in Concurrent mode.
type Metrics struct {
	Collections  obs.Counter   `obs:"gc_collections_total"`
	CopiedObjs   obs.Counter   `obs:"gc_copied_objects_total"`
	CopiedWords  obs.Counter   `obs:"gc_copied_words_total"`
	ScannedPages obs.Counter   `obs:"gc_scanned_pages_total"`
	ScannedSlots obs.Counter   `obs:"gc_scanned_slots_total"`
	FillerWords  obs.Counter   `obs:"gc_filler_words_total"`
	EndFlushes   obs.Counter   `obs:"gc_end_flushes_total"` // to-space pages written back at collection ends
	Flip         obs.Histogram `obs:"gc_flip_ns"`
	Step         obs.Histogram `obs:"gc_step_ns"`
	Trap         obs.Histogram `obs:"gc_trap_ns"`
	Conc         struct {
		Collections obs.Counter   `obs:"gc_conc_collections_total"`
		Quanta      obs.Counter   `obs:"gc_conc_quanta_total"`
		Transports  obs.Counter   `obs:"gc_conc_transports_total"`
		SATBGray    obs.Counter   `obs:"gc_conc_satb_gray_total"`
		Quantum     obs.Histogram `obs:"gc_conc_quantum_ns"`
	}
}

// Collector manages one area of the heap with two semispaces.
type Collector struct {
	cfg   Config
	mem   *vm.Store
	h     *heap.Heap
	log   *wal.Manager
	hooks Hooks

	spaces [2]*heap.Space
	cur    int // index of the space holding live data / receiving copies

	active  bool
	epoch   uint64
	flipLSN word.LSN
	from    *heap.Space
	to      *heap.Space
	scanned []bool // per to-space page (Ellis / stop-the-world)
	scanPtr word.Addr
	// marked is the low-water page index below which the sweep has
	// already marked/unprotected everything (resume point for
	// markThrough).
	marked int
	lot    *heap.LastObjTable
	relocs word.Moves // copy steps not yet handed to hooks.Relocate

	// Concurrent-mode state (concurrent.go): the scan runs in quanta on a
	// collector goroutine instead of under the stop latch.
	concState

	Met Metrics
	bb  *obs.BlackBox
}

// New creates a collector for the area [lo, mid) ∪ [mid, hi) split into two
// equal semispaces.
func New(cfg Config, mem *vm.Store, h *heap.Heap, log *wal.Manager, lo, hi word.Addr) *Collector {
	if (hi-lo)%2 != 0 {
		panic("gc: area not splittable into equal semispaces")
	}
	mid := lo + (hi-lo)/2
	c := &Collector{cfg: cfg, mem: mem, h: h, log: log}
	c.spaces[0] = heap.NewSpace(lo, mid)
	c.spaces[1] = heap.NewSpace(mid, hi)
	return c
}

// SetHooks installs the environment callbacks (done once by the core).
func (c *Collector) SetHooks(h Hooks) { c.hooks = h }

// SetRecorder wires an optional flight recorder: flips, steps and traps
// land in its timeline as spans. Nil disables.
func (c *Collector) SetRecorder(b *obs.BlackBox) { c.bb = b }

// Active reports whether a collection is in progress.
func (c *Collector) Active() bool { return c.active }

// Epoch returns the current (or last) collection epoch.
func (c *Collector) Epoch() uint64 { return c.epoch }

// Current returns the space holding live data.
func (c *Collector) Current() *heap.Space { return c.spaces[c.cur] }

// CurrentIndex returns which semispace is current (for checkpoints).
func (c *Collector) CurrentIndex() int { return c.cur }

// InArea reports whether a falls anywhere in the collector's area.
func (c *Collector) InArea(a word.Addr) bool {
	return c.spaces[0].Contains(a) || c.spaces[1].Contains(a)
}

// Alloc reserves an object of sizeWords for the mutator: at the low end of
// the current space between collections, at the high end of to-space during
// a collection (Fig. 3.3, so new objects are never scanned). ok is false
// when the space is exhausted; the caller then starts or finishes a
// collection and retries.
func (c *Collector) Alloc(sizeWords int) (word.Addr, bool) {
	if c.active {
		if c.concActive && c.to.FreeWords()-sizeWords < c.concRemainingWords(c.Met.CopiedWords.Load()) {
			return word.NilAddr, false
		}
		return c.to.AllocHigh(sizeWords)
	}
	return c.Current().AllocLow(sizeWords)
}

// AllocForMove reserves space for an object evacuated from the volatile
// area (Ch. 5): at the low end of the current space between collections.
// During a *concurrent* collection the move lands in the high-end mutator
// region of to-space instead (Fig. 3.3): the scan never visits it, and
// post-flip volatile objects cannot hold stable from-space pointers (the
// flip translated every volatile slot), so the image needs no further
// translation — which is where, and under which reserve, Alloc puts the
// mutator's own objects. A collection in any other mode must be finished
// first.
func (c *Collector) AllocForMove(sizeWords int) (word.Addr, bool) {
	if c.active && !c.concActive {
		panic("gc: AllocForMove during active collection")
	}
	return c.Alloc(sizeWords)
}

// FreeWords returns the free words in the allocation space. During a
// concurrent collection the headroom reserved for in-flight copies is off
// limits.
func (c *Collector) FreeWords() int {
	if c.active {
		free := c.to.FreeWords()
		if c.concActive {
			free -= c.concRemainingWords(c.Met.CopiedWords.Load())
			if free < 0 {
				free = 0
			}
		}
		return free
	}
	return c.Current().FreeWords()
}

// pageSize is shorthand.
func (c *Collector) pageSize() int { return c.mem.PageSize() }

// toPageIndex maps a to-space address to its scanned[]/LOT index.
func (c *Collector) toPageIndex(a word.Addr) int {
	return int(a-c.to.Lo) / c.pageSize()
}

// StartCollection flips (§3.2): swaps semispaces, translates every root,
// logs the flip record, and arms what the mode arms. rootObj is the current
// address of the global stable-root object; the translated address is
// returned (the caller stores it and the flip record carries it). In
// StopTheWorld mode the collection also runs to completion here; in
// Concurrent mode the call returns with the collection active and the scan
// left to the caller's collector goroutine (ScanQuantum). Runs under the
// exclusive stop latch.
func (c *Collector) StartCollection(rootObj word.Addr) word.Addr {
	if c.active {
		panic("gc: flip during active collection")
	}
	concurrent := c.cfg.Mode == Concurrent
	start := time.Now()
	c.epoch++
	c.active = true
	c.from = c.spaces[c.cur]
	c.cur = 1 - c.cur
	c.to = c.spaces[c.cur]
	c.to.Reset()
	c.scanPtr = c.to.Lo
	c.marked = 0
	nPages := int((c.to.Hi - c.to.Lo + word.Addr(c.pageSize()) - 1) / word.Addr(c.pageSize()))
	c.scanned = make([]bool, nPages)
	c.lot = heap.NewLastObjTable(c.to.Lo, c.to.Hi, c.pageSize())
	c.Met.Collections.Inc()
	if concurrent {
		// Record the reserve before the root copies below count against
		// it: remaining-to-copy = reserve - (CopiedWords - base).
		c.concReserve = spaceUsedWords(c.from)
		c.concBaseCopied = c.Met.CopiedWords.Load()
		c.Met.Conc.Collections.Inc()
	}

	// The flip record precedes the root copy records so that recovery
	// replays the space swap before the copies. RootObjTo is known only
	// after copying, so the record carries the *predicted* target: the
	// root object is copied first and lands at to.Lo.
	newRoot := rootObj
	moves := c.from.Contains(rootObj)
	if moves {
		newRoot = c.to.Lo
	}
	c.flipLSN = c.log.Append(wal.FlipRec{
		Epoch: c.epoch, FromLo: c.from.Lo, FromHi: c.from.Hi,
		ToLo: c.to.Lo, ToHi: c.to.Hi,
		RootObjFrom: rootObj, RootObjTo: newRoot,
	})
	if moves {
		if got := c.forward(rootObj); got != newRoot {
			panic("gc: root object did not land at the predicted address")
		}
	}

	// Translate the remaining roots: transaction handles, locked
	// objects, cross-area slots.
	if c.hooks.ForEachRoot != nil {
		c.hooks.ForEachRoot(func(get func() word.Addr, set func(word.Addr)) {
			p := get()
			if !p.IsNil() && c.from.Contains(p) {
				set(c.forward(p))
			}
		})
	}

	// Arm the read barrier: protect all of to-space (the Ellis modes).
	// Baker and Concurrent protect nothing — Load stands guard on every
	// pointer the mutator reads.
	switch {
	case concurrent:
		c.concActive = true
	case c.cfg.Mode.protects():
		for pg := c.to.Lo.Page(c.pageSize()); pg.Base(c.pageSize()) < c.to.Hi; pg++ {
			c.mem.Protect(pg)
		}
	case c.cfg.Mode == StopTheWorld:
		// The whole collection is this one pause.
		c.Finish()
	}
	handOff(&c.relocs, c.hooks.Relocate)
	d := time.Since(start)
	c.Met.Flip.Observe(uint64(d))
	var mode uint64
	if concurrent {
		mode = 1
	}
	c.bb.Span(obs.EvGCFlip, d, 0, c.Met.Collections.Load(), mode)
	return newRoot
}

// forward returns the to-space address of the object at from, copying it if
// it has not been transported yet (the copy step, §3.4.1).
func (c *Collector) forward(from word.Addr) word.Addr {
	d := c.h.Descriptor(from)
	if d.Forwarded() {
		return d.ForwardAddr()
	}
	size := d.SizeWords()
	to, ok := c.to.AllocLow(size)
	if !ok {
		panic(fmt.Sprintf("gc: to-space exhausted copying %d words (live set exceeds semispace)", size))
	}
	img := c.mem.ReadBytes(from, word.WordsToBytes(size))
	// The copy record carries the descriptor word the forwarding pointer
	// is about to destroy (Fig. 3.5's lost-descriptor crash) but not the
	// object contents: repeating history reconstructs the from-space
	// image (§3.4.1). The E14 ablation includes the contents instead.
	rec := wal.CopyRec{
		Epoch: c.epoch, From: from, To: to, SizeWords: size, Descriptor: uint64(d),
	}
	if c.cfg.CopyContents {
		rec.Contents = img
	}
	lsn := c.log.Append(rec)
	c.mem.WriteBytes(to, img, lsn)
	c.mem.WriteWord(from, uint64(heap.ForwardingDescriptor(to)), lsn)
	c.lot.Record(to)
	c.Met.CopiedObjs.Inc()
	c.Met.CopiedWords.Add(uint64(size))
	c.relocs = append(c.relocs, word.Move{From: from, To: to, Words: size})
	return to
}

// Step performs one increment of collection work: the background scanner
// sweeps up to one quantum of to-space words from the scan pointer
// (stepPages pages' worth, or stepWords in Baker mode), unprotecting pages
// as the sweep passes them. It returns true while the collection is still
// active.
func (c *Collector) Step() bool {
	if !c.active {
		return false
	}
	start := time.Now()
	quantum := stepWords
	if c.cfg.Mode != Baker {
		quantum = stepPages * word.BytesToWords(c.pageSize())
	}
	c.sequentialScan(quantum)
	// Collection-end work (the GCEnd write-back) is asynchronous disk
	// traffic, not a mutator pause; it is excluded here and reported
	// separately.
	d := time.Since(start)
	c.Met.Step.Observe(uint64(d))
	c.bb.Span(obs.EvGCStep, d, 0, c.epoch, 0)
	c.maybeFinish()
	return c.active
}

// Finish drives the collection to completion (used by the stop-the-world
// configuration, by checkpoint-time policies, and before a volatile-area
// collection needs the stable area quiescent).
func (c *Collector) Finish() {
	for c.active {
		c.sequentialScan(1 << 20)
		c.maybeFinish()
	}
}

// maybeFinish completes the collection when nothing is left to scan.
func (c *Collector) maybeFinish() {
	if !c.active {
		return
	}
	if c.scanPtr < c.to.CopyPtr {
		return
	}
	c.log.Append(wal.GCEndRec{Epoch: c.epoch})
	// Write the collection's results back before freeing from-space:
	// replaying this epoch's copy steps reads the from-space image, so
	// once the space is freed its content must never be needed — flushed
	// to-space pages condition those replays away, and the space's later
	// contributions (updates, moves) are self-contained records. This is
	// the paper's constraint that copy and scan records before the last
	// completed flip drop out of recovery (Fig. 4.6). The write-back
	// happens once per collection, but not off the mutator's critical
	// path: it runs inside the finishing StepStable's exclusive latch, one
	// pwrite and one end-write record per to-space page — 10.8, 41 and
	// 145 ms over files for an OO7 module of 32, 128 and 512 assemblies
	// (ROADMAP item 16 takes it out of the stop). Content-carrying copy
	// records (E14) are self-contained, so they skip it.
	if !c.cfg.CopyContents {
		c.Met.EndFlushes.Add(uint64(c.mem.FlushRange(c.to.Lo, c.to.Hi)))
	}
	// Free from-space: drop its pages without writing them back. Their
	// dirty entries (forwarding-pointer writes) are discarded too — redo
	// never needs a freed space.
	c.mem.DiscardRange(c.from.Lo, c.from.Hi)
	c.from.Reset()
	// Disarm any leftover protection (pages in the gap or the mutator
	// allocation region that were never touched).
	if c.cfg.Mode.protects() {
		for pg := c.to.Lo.Page(c.pageSize()); pg.Base(c.pageSize()) < c.to.Hi; pg++ {
			c.mem.Unprotect(pg)
		}
	}
	c.active = false
	c.concActive = false
	c.from = nil
	c.scanned = nil
	c.lot = nil
}

// Trap is the Ellis read-barrier trap handler: the mutator touched a
// protected page; scan it and unprotect (§3.2.1). The core installs it as
// the store's trap handler.
func (c *Collector) Trap(pg word.PageID) {
	if !c.active || !c.to.Contains(pg.Base(c.pageSize())) {
		// A stale protection (e.g. page of another area) — nothing to
		// scan, and nothing recorded: only real barrier pauses count.
		c.mem.Unprotect(pg)
		return
	}
	start := time.Now()
	c.scanPage(pg)
	// Scan-ahead: amortize the trap with one background quantum, so a
	// pointer-chasing mutator does not take a trap (and plant a filler)
	// on every page — the sweep catches up and unprotects ahead of it.
	c.sequentialScan(stepPages * word.BytesToWords(c.pageSize()))
	d := time.Since(start)
	c.Met.Trap.Observe(uint64(d))
	c.bb.Span(obs.EvGCTrap, d, 0, c.epoch, uint64(pg))
	c.maybeFinish()
}

// scanPage is the scan step (§3.4.2): translate every from-space pointer on
// one to-space page, transporting targets as needed, then log one scan
// record and unprotect the page. Only the slots on this page are fixed;
// an object spanning pages is finished when its other pages are scanned.
func (c *Collector) scanPage(pg word.PageID) {
	ps := c.pageSize()
	base := pg.Base(ps)
	idx := c.toPageIndex(base)
	if c.scanned[idx] {
		c.mem.Unprotect(pg)
		return
	}
	pageEnd := base + word.Addr(ps)

	// If the copy pointer is inside this page, round it up to the page
	// end (planting a parseable filler) so no later copy step lands on a
	// page the mutator can already see.
	if c.to.CopyPtr > base && c.to.CopyPtr < pageEnd {
		c.plantFiller(pageEnd)
	}

	limit := c.to.CopyPtr
	if limit > pageEnd {
		limit = pageEnd
	}
	var fixes []wal.PtrFix
	if base < limit {
		sizeAt := func(a word.Addr) int { return c.h.Descriptor(a).SizeWords() }
		for obj := c.lot.FirstOverlapping(base, c.to.CopyPtr, sizeAt); !obj.IsNil() && obj < limit; {
			fixes = append(fixes, c.scanObjectSlots(obj, base, pageEnd, nil)...)
			obj = obj.Add(c.h.Descriptor(obj).SizeWords())
		}
	}
	var lsn word.LSN
	if len(fixes) > 0 {
		lsn = c.log.Append(wal.ScanRec{Epoch: c.epoch, Page: pg, Full: true, Fixes: fixes})
	}
	for _, f := range fixes {
		c.mem.WriteWord(f.Addr, uint64(f.NewPtr), lsn)
	}
	c.scanned[idx] = true
	c.mem.Unprotect(pg)
	c.Met.ScannedPages.Inc()
	c.Met.ScannedSlots.Add(uint64(len(fixes)))
}

// scanObjectSlots computes the pointer fixes for the slots of the object at
// obj that fall inside [lo, hi), transporting from-space targets. Fixes are
// returned rather than applied so the scan record precedes the writes.
func (c *Collector) scanObjectSlots(obj word.Addr, lo, hi word.Addr, out []wal.PtrFix) []wal.PtrFix {
	d := c.h.Descriptor(obj)
	if d.TypeID() == FillerType {
		return out
	}
	for i := 0; i < d.NPtrs(); i++ {
		slot := obj + word.Addr(heap.PtrOffset(i))
		if slot < lo || slot >= hi {
			continue
		}
		p := word.Addr(c.mem.ReadWord(slot))
		if p.IsNil() || !c.from.Contains(p) {
			continue
		}
		out = append(out, wal.PtrFix{Addr: slot, NewPtr: c.forward(p)})
	}
	return out
}

// plantFiller fills [CopyPtr, end) with a pseudo-object so parsing stays
// possible, logging its descriptor (an Alloc record by the system
// transaction) so the to-space image is reconstructible after a crash.
func (c *Collector) plantFiller(end word.Addr) {
	gap := word.BytesToWords(int(end - c.to.CopyPtr))
	if gap <= 0 {
		return
	}
	a, ok := c.to.AllocLow(gap)
	if !ok {
		panic("gc: to-space exhausted while padding a scanned page")
	}
	d := heap.NewDescriptor(FillerType, 0, gap-1)
	lsn := c.log.Append(wal.AllocRec{Addr: a, Descriptor: uint64(d), SizeWords: gap})
	c.h.SetDescriptor(a, d, lsn)
	c.lot.Record(a)
	c.Met.FillerWords.Add(uint64(gap))
}

// sequentialScan is the background scanner: it sweeps objects from the
// scan pointer, translating from-space pointers (slot-granular scan steps;
// in Baker mode this is §3.8's whole story, in Ellis mode it complements
// the trap handler). Slots on pages a trap already scanned are skipped.
// Scan records are batched per page; a page is marked scanned — and
// unprotected — once the sweep passes its end, at which point the copy
// pointer is beyond it, so it can never receive another unscanned object.
func (c *Collector) sequentialScan(quantum int) {
	defer handOff(&c.relocs, c.hooks.Relocate)
	budget := quantum
	ps := c.pageSize()
	var fixes []wal.PtrFix
	curPage := word.PageID(0)
	flush := func() {
		if len(fixes) == 0 {
			return
		}
		// Sweep records never claim their page complete: curPage is the
		// page of the last *slot* fixed, which (for an object spanning a
		// page boundary) can be ahead of the sweep. Completion is conveyed
		// by ScanPtr — recovery marks every page wholly behind it scanned,
		// exactly mirroring markThrough below. Only trap records
		// (scanPage) set Full: they really scan a whole page.
		lsn := c.log.Append(wal.ScanRec{
			Epoch: c.epoch, Page: curPage, ScanPtr: c.scanPtr, Fixes: fixes,
		})
		for _, f := range fixes {
			c.mem.WriteWord(f.Addr, uint64(f.NewPtr), lsn)
		}
		c.Met.ScannedSlots.Add(uint64(len(fixes)))
		fixes = nil
	}
	markThrough := func(limit word.Addr) {
		// Every page wholly behind limit is scanned; unprotect it.
		// c.marked remembers where previous sweeps stopped.
		for ; c.marked < len(c.scanned); c.marked++ {
			base := c.to.Lo + word.Addr(c.marked*ps)
			if base+word.Addr(ps) > limit {
				break
			}
			if !c.scanned[c.marked] {
				c.scanned[c.marked] = true
				c.mem.Unprotect(base.Page(ps))
				c.Met.ScannedPages.Inc()
			}
		}
	}
	for budget > 0 && c.scanPtr < c.to.CopyPtr {
		d := c.h.Descriptor(c.scanPtr)
		size := d.SizeWords()
		if d.TypeID() != FillerType {
			for i := 0; i < d.NPtrs(); i++ {
				slot := c.scanPtr + word.Addr(heap.PtrOffset(i))
				if c.scanned[c.toPageIndex(slot)] {
					continue // a trap already fixed this page's slots
				}
				pg := slot.Page(ps)
				if pg != curPage {
					flush()
					curPage = pg
				}
				p := word.Addr(c.mem.ReadWord(slot))
				if !p.IsNil() && c.from.Contains(p) {
					fixes = append(fixes, wal.PtrFix{Addr: slot, NewPtr: c.forward(p)})
				}
			}
		}
		prevPage := c.scanPtr.Page(ps)
		c.scanPtr = c.scanPtr.Add(size)
		budget -= size
		if c.scanPtr.Page(ps) != prevPage {
			flush()
			markThrough(c.scanPtr)
		}
	}
	flush()
	markThrough(c.scanPtr)
}

// Load is the collector's one pointer-load entry: the mutator read pointer
// p out of the heap, and what it may keep is returned. Under page
// protection loads never see from-space pointers (the page trap rewrote
// them), between collections there is no from-space, so both return p
// unchanged. Baker mode transports a from-space target here (§3.8); the
// caller holds the action latch exclusively, as every action does while a
// non-concurrent collection is active. During a Concurrent collection
// mutators call it under the shared gate, and transport does the same under
// transMu.
func (c *Collector) Load(p word.Addr) word.Addr {
	switch {
	case p.IsNil() || !c.active:
		return p
	case c.concActive:
		return c.transport(p)
	case c.cfg.Mode == Baker && c.from.Contains(p):
		defer handOff(&c.relocs, c.hooks.Relocate)
		return c.forward(p)
	}
	return p
}

// State snapshots the collector for a checkpoint record.
func (c *Collector) State() wal.GCState {
	st := wal.GCState{Active: c.active, Epoch: c.epoch}
	if !c.active {
		return st
	}
	st.FlipLSN = c.flipLSN
	st.FromLo, st.FromHi = c.from.Lo, c.from.Hi
	st.ToLo, st.ToHi = c.to.Lo, c.to.Hi
	st.CopyPtr = c.to.CopyPtr
	st.ScanPtr = c.scanPtr
	st.AllocPtr = c.to.AllocPtr
	st.Scanned = append([]bool(nil), c.scanned...)
	st.LastObj = append([]word.Addr(nil), c.lot.Entries()...)
	return st
}

// Restore reinstates a collection from a checkpointed (and redo-advanced)
// state after a crash: spaces, pointers, scanned set and Last Object Table
// are installed and the mode's barrier re-armed, so the interrupted
// collection simply continues after recovery (§3.5.3: recovery never
// traverses the heap). Under page protection every unscanned to-space page
// is re-protected. In Concurrent mode nothing is protected (Load stands
// guard) and the caller puts the scan back on the collector goroutine; the
// from-space occupancy snapshot is gone after a crash, so the copy reserve
// assumes the worst case — everything not yet copied.
func (c *Collector) Restore(st wal.GCState, cur int) {
	c.cur = cur
	c.epoch = st.Epoch
	c.active = st.Active
	if !st.Active {
		return
	}
	c.flipLSN = st.FlipLSN
	if c.spaces[c.cur].Lo != st.ToLo {
		panic("gc: restore space mismatch")
	}
	c.to = c.spaces[c.cur]
	c.from = c.spaces[1-c.cur]
	c.to.CopyPtr = st.CopyPtr
	c.to.AllocPtr = st.AllocPtr
	c.scanPtr = st.ScanPtr
	c.marked = 0
	c.scanned = append([]bool(nil), st.Scanned...)
	c.lot = heap.NewLastObjTable(c.to.Lo, c.to.Hi, c.pageSize())
	c.lot.Restore(st.LastObj)
	if c.cfg.Mode == Concurrent {
		c.concReserve = word.BytesToWords(int(st.FromHi-st.FromLo)) -
			word.BytesToWords(int(st.CopyPtr-st.ToLo))
		if c.concReserve < 0 {
			c.concReserve = 0
		}
		c.concBaseCopied = c.Met.CopiedWords.Load()
		c.concActive = true
		return
	}
	if c.cfg.Mode.protects() {
		ps := word.Addr(c.pageSize())
		for i, done := range c.scanned {
			if !done {
				c.mem.Protect((c.to.Lo + word.Addr(i)*ps).Page(c.pageSize()))
			}
		}
	}
}

// RestoreRoot returns the stable root object's address in a restored
// collection, copying the root first when the crash kept the flip record
// but cut the root's copy record that follows it.
func (c *Collector) RestoreRoot(root word.Addr) word.Addr {
	if !c.active || !c.from.Contains(root) {
		return root
	}
	defer handOff(&c.relocs, c.hooks.Relocate)
	return c.forward(root)
}

// SetAllocFrontier restores the idle-space allocation pointer (from a
// checkpoint) when no collection is active.
func (c *Collector) SetAllocFrontier(copyPtr word.Addr) {
	c.Current().CopyPtr = copyPtr
}

// SetAllocHighFrontier restores the descending high-end frontier of the
// current space (from a checkpoint) when no collection is active: objects
// moved in during a concurrent scan live at [AllocPtr, Hi) and must not be
// allocated over.
func (c *Collector) SetAllocHighFrontier(allocPtr word.Addr) {
	c.Current().AllocPtr = allocPtr
}
