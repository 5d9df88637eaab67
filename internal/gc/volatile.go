package gc

import (
	"fmt"
	"slices"
	"time"

	"stableheap/internal/heap"
	"stableheap/internal/obs"
	"stableheap/internal/vm"
	"stableheap/internal/wal"
	"stableheap/internal/word"
)

// VolatileHooks connect the volatile-area collector to the stable-heap
// core.
type VolatileHooks struct {
	// ForEachRoot visits the volatile root slots: the global volatile
	// root pointer and every registered transaction handle.
	ForEachRoot func(visit func(get func() word.Addr, set func(word.Addr)))
	// StableSlots returns the stable→volatile remembered set: every
	// stable-area slot currently holding a pointer into the volatile
	// area. These slots are roots of the volatile collection.
	StableSlots func() []word.Addr
	// NewlyStable returns the volatile addresses of every tracked
	// newly-stable (LS) object. Minor collections and concurrent flips
	// evacuate the ones inside their from-set — reachable or not — so
	// no LS entry can dangle into a space about to be discarded.
	NewlyStable func() []word.Addr
	// AllocStable reserves stable-area space for a newly stable object
	// being evacuated (Ch. 5's "move at the next volatile collection").
	AllocStable func(sizeWords int) word.Addr
	// Relocate is Hooks.Relocate for this collector's copies and stable
	// moves; the core also clears a moved object's LS entry.
	Relocate func(ms word.Moves)
	// OnStableSlotFixed reports that a stable-area slot was rewritten;
	// stillVolatile says whether the new target remains in the volatile
	// area (the slot stays in the remembered set) or not (it leaves).
	OnStableSlotFixed func(slot, newPtr word.Addr, stillVolatile bool)
}

// VolatileMetrics counts volatile-area collections. Pause is the always-on
// stop-the-world pause histogram. Nursery counts the nursery generation and
// is registered only when there is one; Conc counts the mostly-concurrent
// mode (ScanQuantum / Load, and the core's SATB deletion-barrier hits) and
// is registered only in that mode.
type VolatileMetrics struct {
	Collections obs.Counter   `obs:"vgc_collections_total"`
	CopiedObjs  obs.Counter   `obs:"vgc_copied_objects_total"`
	CopiedWords obs.Counter   `obs:"vgc_copied_words_total"`
	MovedObjs   obs.Counter   `obs:"vgc_moved_objects_total"` // evacuated into the stable area
	MovedWords  obs.Counter   `obs:"vgc_moved_words_total"`
	Pause       obs.Histogram `obs:"vgc_pause_ns"`
	Nursery     struct {
		Minors        obs.Counter   `obs:"vgc_nursery_minor_total"`
		AllocObjs     obs.Counter   `obs:"vgc_nursery_alloc_objects_total"`
		AllocWords    obs.Counter   `obs:"vgc_nursery_alloc_words_total"`
		PromotedObjs  obs.Counter   `obs:"vgc_nursery_promoted_objects_total"` // survivors copied into older spaces
		PromotedWords obs.Counter   `obs:"vgc_nursery_promoted_words_total"`
		BarrierHits   obs.Counter   `obs:"vgc_nursery_barrier_hits_total"` // the core's generational write barrier
		MinorPause    obs.Histogram `obs:"vgc_minor_pause_ns"`
	}
	Conc struct {
		Collections obs.Counter   `obs:"vgc_conc_collections_total"`
		Quanta      obs.Counter   `obs:"vgc_conc_quanta_total"`
		Transports  obs.Counter   `obs:"vgc_conc_transports_total"`
		SATBGray    obs.Counter   `obs:"vgc_conc_satb_gray_total"`
		FlipPause   obs.Histogram `obs:"vgc_conc_flip_pause_ns"`
		Quantum     obs.Histogram `obs:"vgc_conc_quantum_ns"`
	}
}

// VolatileCollector is the plain, unlogged copying collector of the
// volatile area (Ch. 5). Ordinary volatile objects are copied without any
// logging — this is precisely how the divided heap avoids the costs of
// atomic collection for volatile state. Newly stable objects (AS bit set)
// are instead evacuated into the stable area, and the cycle ends with one
// logged V2SCopy record that carries their images, pointer slots
// translated, with the redo-only fixes of the logged slots that named them
// (the paper's "S4vscan").
//
// Beyond the original stop-the-world Collect, the collector supports a
// small nursery generation (CollectNursery) and a mostly-concurrent mode
// (StartConcurrent / ScanQuantum / FinishConcurrent) where only the flip
// is stop-the-world and the scan runs on a collector goroutine. All of
// them, and the post-recovery evacuation, run the one cycle below.
type VolatileCollector struct {
	mem   *vm.Store
	h     *heap.Heap
	log   *wal.Manager
	hooks VolatileHooks

	spaces [2]*heap.Space
	cur    int
	epoch  uint64

	// nursery generation (nil when disabled)
	nursery  *heap.Space
	nurLimit int // soft allocation cap in words, RATIO growth

	// mostly-concurrent collection state (concurrent.go); major is the
	// cycle parked between scan quanta, nil unless concActive.
	concState
	major *cycle

	relocs word.Moves // moves not yet handed to hooks.Relocate
	img    []byte     // evacuate's object image, reused
	mv     moveBuf    // the cycle's moves into the stable area
	Met    VolatileMetrics
	bb     *obs.BlackBox
}

// NewVolatile creates the volatile-area collector over [lo, hi), split into
// two equal semispaces.
func NewVolatile(mem *vm.Store, h *heap.Heap, log *wal.Manager, lo, hi word.Addr) *VolatileCollector {
	if (hi-lo)%2 != 0 {
		panic("gc: volatile area not splittable")
	}
	mid := lo + (hi-lo)/2
	v := &VolatileCollector{mem: mem, h: h, log: log}
	v.mv.dest = make(map[word.Addr]word.Addr)
	v.spaces[0] = heap.NewSpace(lo, mid)
	v.spaces[1] = heap.NewSpace(mid, hi)
	return v
}

// SetHooks installs the environment callbacks.
func (v *VolatileCollector) SetHooks(h VolatileHooks) { v.hooks = h }

// SetRecorder wires an optional flight recorder: flips and minor
// collections land in its timeline as spans, stamped with the new epoch.
// Nil disables.
func (v *VolatileCollector) SetRecorder(b *obs.BlackBox) { v.bb = b }

// Epoch returns the number of volatile flips performed (minor collections
// do not flip and do not advance the epoch).
func (v *VolatileCollector) Epoch() uint64 { return v.epoch }

// Current returns the space receiving aged allocations.
func (v *VolatileCollector) Current() *heap.Space { return v.spaces[v.cur] }

// CurrentIndex returns which semispace is current (for checkpoints).
func (v *VolatileCollector) CurrentIndex() int { return v.cur }

// SetCurrentIndex restores the current-semispace choice (recovery).
func (v *VolatileCollector) SetCurrentIndex(i int) { v.cur = i }

// InArea reports whether a falls in the volatile area (either semispace or
// the nursery).
func (v *VolatileCollector) InArea(a word.Addr) bool {
	if v.spaces[0].Contains(a) || v.spaces[1].Contains(a) {
		return true
	}
	return v.nursery != nil && v.nursery.Contains(a)
}

// Alloc reserves a new aged object in the volatile area; ok is false when
// full (the caller collects and retries). While a concurrent scan is in
// flight, allocations go to the high end of to-space and must leave
// headroom for the copies the scan has yet to make.
func (v *VolatileCollector) Alloc(sizeWords int) (word.Addr, bool) {
	if v.concActive {
		if v.Current().FreeWords()-sizeWords < v.concRemainingWords(v.Met.CopiedWords.Load()) {
			return word.NilAddr, false
		}
		return v.Current().AllocHigh(sizeWords)
	}
	return v.Current().AllocLow(sizeWords)
}

// FreeWords returns free space in the current volatile semispace.
func (v *VolatileCollector) FreeWords() int { return v.Current().FreeWords() }

// NurseryLimitWords returns the nursery's current soft allocation cap (0
// without a nursery): the worst-case promotion volume of one minor
// collection, and so the core's pacing unit for starting a concurrent
// full collection while the aged space can still absorb upcoming minors.
func (v *VolatileCollector) NurseryLimitWords() int {
	if v.nursery == nil {
		return 0
	}
	return v.nurLimit
}

// Reset empties the volatile area (after recovery: volatile contents do not
// survive a crash; recovered newly-stable objects are re-materialized by
// redo and then evacuated, see the recovery manager).
func (v *VolatileCollector) Reset() {
	v.spaces[0].Reset()
	v.spaces[1].Reset()
	if v.nursery != nil {
		v.nursery.Reset()
	}
}

// cycle is one evacuation of a from-set into a to-space — the volatile
// area's only collection procedure (Ch. 5). Every entry point builds one:
//
//	full (Collect)            from = old semispace + nursery, to = new semispace
//	concurrent flip + quanta  from = old semispace,           to = new semispace
//	minor (CollectNursery)    from = nursery,                 to = current semispace
//	post-recovery             from = both semispaces + nursery, to = nil
//
// Copies are unlogged and queue in gray (FIFO, so they are scanned in
// Cheney order); newly stable objects are bound for the stable area and
// queue as images in the collector's moveBuf, which the same Cheney pass
// translates and the cycle's one V2SCopy record logs at its end.
type cycle struct {
	from []*heap.Space
	to   *heap.Space // nil: nothing but newly stable objects may be live
	// high sends copies to to's high end: a parked major cycle owns the
	// low end, and objects born after its flip hold no from-space pointers.
	high     bool
	minor    bool        // copies count as promotions
	gray     []word.Addr // copied, pointer slots not yet translated
	graySlot int         // next slot of gray[0]: scan resumes mid-object
}

func (c *cycle) inFrom(a word.Addr) bool {
	for _, s := range c.from {
		if s.Contains(a) {
			return true
		}
	}
	return false
}

// flip swaps the semispaces and returns the cycle that empties the old one
// (and the nursery, if asked).
func (v *VolatileCollector) flip(withNursery bool) *cycle {
	v.epoch++
	v.Met.Collections.Inc()
	c := &cycle{from: []*heap.Space{v.spaces[v.cur]}}
	if withNursery {
		c.from = append(c.from, v.nursery)
	}
	v.cur = 1 - v.cur
	c.to = v.spaces[v.cur]
	c.to.Reset()
	return c
}

// begin evacuates what the cycle's roots reach directly: volatile globals
// and transaction handles; the stable→volatile remembered slots, whose
// rewrites are stable-area modifications and ride the cycle's record;
// volSlots, the volatile remembered slots into the from-set (sorted); and,
// with drainLS, every tracked newly stable object in the from-set,
// reachable or not. Cycles whose from-set outlives the stop-the-world
// section (concurrent flips: logged moves may not run on the collector
// goroutine) or is reset without a full trace of the area (minors: no LS
// entry may dangle into the reset nursery) drain; unreachable ones become
// stable garbage for the stable collector.
func (v *VolatileCollector) begin(c *cycle, volSlots []word.Addr, drainLS bool) {
	if v.hooks.ForEachRoot != nil {
		v.hooks.ForEachRoot(func(get func() word.Addr, set func(word.Addr)) {
			p := get()
			if !p.IsNil() && c.inFrom(p) {
				set(v.evacuate(c, p))
			}
		})
	}
	if v.hooks.StableSlots != nil {
		v.fixLogged(c, v.hooks.StableSlots())
	}
	var ls []word.Addr
	if drainLS && v.hooks.NewlyStable != nil {
		ls = v.hooks.NewlyStable()
	}
	v.fixVolatileSlots(c, volSlots, ls)
	for _, a := range ls {
		if c.inFrom(a) && !v.h.Descriptor(a).Forwarded() {
			v.evacuate(c, a)
		}
	}
}

// scan translates the pointer slots of gray objects for roughly budget
// words of work — examined slots plus the words any evacuation copies —
// and reports whether gray objects remain. It resumes mid-object
// (graySlot), so one wide object cannot stretch a quantum past the budget:
// slots before graySlot are black, slots after are gray, and mutators
// between quanta can only store to-space addresses (the read barrier
// forwards every load), so slot granularity preserves the Cheney
// invariant.
func (v *VolatileCollector) scan(c *cycle, budget int) bool {
	defer handOff(&v.relocs, v.hooks.Relocate)
	for budget > 0 && len(c.gray) > 0 {
		obj := c.gray[0]
		for np := v.h.Descriptor(obj).NPtrs(); c.graySlot < np; {
			if budget <= 0 {
				return true
			}
			slot := obj + word.Addr(heap.PtrOffset(c.graySlot))
			c.graySlot++
			budget--
			p := word.Addr(v.mem.ReadWord(slot))
			if !p.IsNil() && c.inFrom(p) {
				// Sized by the source: a move's destination is written last.
				d := v.h.Descriptor(p)
				to := v.evacuate(c, p)
				v.mem.WriteWord(slot, uint64(to), word.NilLSN)
				if d.Forwarded() {
					d = v.h.Descriptor(to)
				}
				budget -= d.SizeWords()
			}
		}
		c.gray = c.gray[1:]
		c.graySlot = 0
	}
	return len(c.gray) > 0
}

// scanMoved is the Cheney pass over the images bound for the stable area:
// it translates their pointer slots in the buffer, before anything is
// logged. A slot that still names the volatile area — a to-space copy, or
// an aged survivor of a minor collection — enters the remembered set.
func (v *VolatileCollector) scanMoved(c *cycle) {
	m := &v.mv
	for ; m.scanned < len(m.from); m.scanned++ {
		off := m.scanOff
		d := heap.Descriptor(word.GetWord(m.img, off))
		m.scanOff += word.WordsToBytes(d.SizeWords())
		for j := 0; j < d.NPtrs(); j++ {
			at := off + heap.PtrOffset(j)
			p := word.Addr(word.GetWord(m.img, at))
			if c.inFrom(p) {
				p = v.evacuate(c, p) // may grow m.img
				word.PutWord(m.img, at, uint64(p))
			}
			if v.InArea(p) && v.hooks.OnStableSlotFixed != nil {
				slot := m.dest[m.from[m.scanned]] + word.Addr(heap.PtrOffset(j))
				v.hooks.OnStableSlotFixed(slot, p, true)
			}
		}
	}
}

// finish runs the cycle to completion — each pass may feed the other —
// logs its moves and hands the last of them over. It returns the number
// of newly stable objects moved.
func (v *VolatileCollector) finish(c *cycle) int {
	defer handOff(&v.relocs, v.hooks.Relocate)
	for len(c.gray) > 0 || v.mv.scanned < len(v.mv.from) {
		for v.scan(c, 1<<30) {
		}
		v.scanMoved(c)
	}
	return v.logMoves()
}

// retire frees the from-set. Its contents are dead and redo never reads
// them (V2SCopy records are self-contained), so the pages are dropped
// without ghosts.
func (v *VolatileCollector) retire(c *cycle) {
	for _, s := range c.from {
		v.mem.DiscardRange(s.Lo, s.Hi)
		s.Reset()
	}
}

// Collect runs one stop-the-world volatile collection (nursery included in
// the from-set), returning the number of newly stable objects moved into
// the stable area.
func (v *VolatileCollector) Collect() int {
	if v.concActive {
		panic("gc: stop-the-world collect during a concurrent scan")
	}
	start := time.Now()
	c := v.flip(v.nursery != nil)
	v.begin(c, nil, false)
	n := v.finish(c)
	v.log.Append(wal.VFlipRec{Epoch: v.epoch, Moved: n})
	v.retire(c)
	d := time.Since(start)
	v.Met.Pause.Observe(uint64(d))
	v.bb.SetGCEpoch(v.epoch)
	v.bb.Span(obs.EvVGCFlip, d, 0, v.epoch, 0)
	return n
}

// CollectRecovered evacuates recovered newly stable objects out of the
// volatile area after a crash. Redo re-materialized them at their pre-crash
// volatile addresses — in either semispace or the nursery — and everything
// else in the volatile area is dead (volatile state does not survive
// crashes), so the whole area is the from-set and there is no to-space: the
// only live objects are AS objects reachable from the rebuilt
// stable→volatile remembered set and from the undo-information roots of
// transactions restored in-doubt (§3.5.2) — old pointer values their
// eventual abort must restore, possibly reachable nowhere else.
func (v *VolatileCollector) CollectRecovered() int {
	v.epoch++
	v.Met.Collections.Inc()
	c := &cycle{from: []*heap.Space{v.spaces[0], v.spaces[1]}}
	if v.nursery != nil {
		c.from = append(c.from, v.nursery)
	}
	v.begin(c, nil, false)
	n := v.finish(c)
	v.log.Append(wal.VFlipRec{Epoch: v.epoch, Moved: n})
	v.retire(c)
	return n
}

// evacuate transports the volatile object at from on behalf of cycle c:
// newly stable objects go to the stable area (logged when the cycle ends),
// the rest to c's to-space (unlogged). Returns the new address.
func (v *VolatileCollector) evacuate(c *cycle, from word.Addr) word.Addr {
	d := v.h.Descriptor(from)
	if d.Forwarded() {
		return d.ForwardAddr()
	}
	size := d.SizeWords()
	if d.AS() {
		if to, ok := v.mv.dest[from]; ok {
			return to // moved this cycle: its forwarding word is owed
		}
		if c == v.major {
			// The flip drains every LS entry out of from-space, and
			// commits only mark to-space or nursery objects AS, so
			// the concurrent scan can never meet one: a logged move
			// off the collector goroutine would break the WAL
			// protocol.
			panic(fmt.Sprintf("gc: newly stable object %v reached by the concurrent scan", from))
		}
		return v.moveStable(c, from, d, size)
	}
	if c.to == nil {
		// CollectRecovered: only AS objects can be live after a crash.
		panic(fmt.Sprintf("gc: non-stable object %v reachable in the volatile area after recovery", from))
	}
	var to word.Addr
	var ok bool
	if c.high {
		to, ok = c.to.AllocHigh(size)
	} else {
		to, ok = c.to.AllocLow(size)
	}
	if !ok {
		panic(fmt.Sprintf("gc: volatile to-space exhausted copying %d words", size))
	}
	v.img = slices.Grow(v.img[:0], word.WordsToBytes(size))[:word.WordsToBytes(size)]
	v.mem.ReadInto(from, v.img)
	v.mem.WriteBytes(to, v.img, word.NilLSN)
	v.mem.WriteWord(from, uint64(heap.ForwardingDescriptor(to)), word.NilLSN)
	if c.minor {
		v.Met.Nursery.PromotedObjs.Inc()
		v.Met.Nursery.PromotedWords.Add(uint64(size))
	} else {
		v.Met.CopiedObjs.Inc()
		v.Met.CopiedWords.Add(uint64(size))
	}
	c.gray = append(c.gray, to)
	v.relocs = append(v.relocs, word.Move{From: from, To: to, Words: size})
	return to
}

// moveBuf holds a cycle's moves into the stable area until its V2SCopy
// record is logged: the images end to end in move order, tracking bits
// cleared, with their sources, destination runs and source → destination
// map, and the fixes of the logged slots that named them. The slices are
// reused: Append has encoded the record by the time it returns, and moves
// only run with the heap stopped.
type moveBuf struct {
	img     []byte
	from    []word.Addr
	runs    []wal.MoveRun
	dest    map[word.Addr]word.Addr
	fixes   []wal.PtrFix
	scanned int // images scanMoved has translated
	scanOff int // their bytes
}

// moveStable reserves the stable-area destination of a newly stable object
// and buffers its image; the cycle's record will carry it.
func (v *VolatileCollector) moveStable(c *cycle, from word.Addr, d heap.Descriptor, size int) word.Addr {
	to := v.hooks.AllocStable(size)
	m := &v.mv
	off, n := len(m.img), word.WordsToBytes(size)
	m.img = slices.Grow(m.img, n)[:off+n]
	v.mem.ReadInto(from, m.img[off:])
	// The object is physically stable once moved: clear the tracking
	// bits in the image before it is logged and written.
	word.PutWord(m.img, off, uint64(d.WithAS(false).WithLS(false)))
	if k := len(m.runs) - 1; k >= 0 && m.runs[k].To+word.Addr(m.runs[k].Bytes) == to {
		m.runs[k].Bytes += n
	} else {
		m.runs = append(m.runs, wal.MoveRun{To: to, Bytes: n})
	}
	m.from = append(m.from, from)
	m.dest[from] = to
	v.Met.MovedObjs.Inc()
	v.Met.MovedWords.Add(uint64(size))
	v.relocs = append(v.relocs, word.Move{From: from, To: to, Words: size})
	return to
}

// logMoves ends the cycle's moves with one V2SCopy record, writes its
// images and fixes under its LSN, and only then plants the forwarding
// words: a volatile page written back earlier must not carry a move the log
// does not hold. A cycle that moved and fixed nothing logs nothing. It
// returns the number of objects moved.
func (v *VolatileCollector) logMoves() int {
	m := &v.mv
	n := len(m.from)
	if n == 0 && len(m.fixes) == 0 {
		return 0
	}
	rec := wal.V2SCopyRec{From: m.from, Runs: m.runs, Object: m.img, Fixes: m.fixes}
	lsn := v.log.Append(rec)
	rec.Writes(func(at word.Addr, b []byte) { v.mem.WriteBytes(at, b, lsn) })
	for _, from := range m.from {
		v.mem.WriteWord(from, uint64(heap.ForwardingDescriptor(m.dest[from])), word.NilLSN)
	}
	// A fresh map, not clear: clearing costs the capacity one long cycle left.
	*m = moveBuf{img: m.img[:0], from: m.from[:0], runs: m.runs[:0], fixes: m.fixes[:0], dest: make(map[word.Addr]word.Addr)}
	return n
}

// fixLogged queues, for the cycle's record, the fixes of logged slots —
// remembered stable slots, or slots of a newly stable object still at an
// aged address — that name the from-set, and settles their remembered-set
// membership.
func (v *VolatileCollector) fixLogged(c *cycle, slots []word.Addr) {
	for _, slot := range slots {
		p := word.Addr(v.mem.ReadWord(slot))
		if p.IsNil() || !c.inFrom(p) {
			continue
		}
		to := v.evacuate(c, p)
		v.mv.fixes = append(v.mv.fixes, wal.PtrFix{Addr: slot, NewPtr: to})
		if v.hooks.OnStableSlotFixed != nil {
			v.hooks.OnStableSlotFixed(slot, to, v.InArea(to))
		}
	}
}

// fixVolatileSlots rewrites volatile-area slots (the nursery remembered
// set, sorted) whose targets a minor collection moved. Volatile writes are
// unlogged — except inside a newly stable object still at an aged address
// (ls, sorted): recovery rebuilds it from its base record plus logged
// updates, so its slots are fixed under the WAL protocol like stable ones.
func (v *VolatileCollector) fixVolatileSlots(c *cycle, slots, ls []word.Addr) {
	var logged []word.Addr
	for _, slot := range slots {
		// LS entries in the nursery (the from-space) may already be
		// forwarded; remembered slots never lie there.
		for len(ls) > 0 && (c.inFrom(ls[0]) || ls[0].Add(v.h.Descriptor(ls[0]).SizeWords()) <= slot) {
			ls = ls[1:]
		}
		if len(ls) > 0 && ls[0] <= slot {
			logged = append(logged, slot)
			continue
		}
		p := word.Addr(v.mem.ReadWord(slot))
		if p.IsNil() || !c.inFrom(p) {
			continue
		}
		v.mem.WriteWord(slot, uint64(v.evacuate(c, p)), word.NilLSN)
	}
	v.fixLogged(c, logged)
}
