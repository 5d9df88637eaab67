package gc

import (
	"sync"
	"time"

	"stableheap/internal/heap"
	"stableheap/internal/obs"
	"stableheap/internal/wal"
	"stableheap/internal/word"
)

// Mostly-concurrent collection (Config.ConcurrentVGC and the Concurrent
// stable-collector Mode), after PyPy's MostlyConcurrentMarkSweepGC: one machine that
// both areas plug into. The flip — the space swap plus root,
// remembered-set, handle, undo and cross-area slot translation — is one
// heap stop, and the scan of to-space runs in quanta (ScanQuantum) on a
// collector goroutine, each quantum a heap stop of its own (the core's stop
// latch held exclusively). Mutators running between quanta are protected by
// two barriers the core maintains:
//
//   - a transporting read barrier (Load): every pointer load forwards
//     from-space targets, so mutators never observe — and so never store —
//     a from-space address after the flip;
//   - a snapshot-at-the-beginning deletion barrier (EvacuateGray):
//     overwritten pointers are grayed and evacuated before any abort can
//     restore them, so undo never resurrects a from-space address either.
//
// The areas differ only in what is logged. The volatile collector logs
// everything at the flip (V2SCopy and VFlip — every LS move, reachable or
// not); its scan is pure unlogged copying, so a crash mid-scan is
// indistinguishable to recovery from a crash after a completed collection.
// The stable collector's scan steps are the same WAL-logged, restartable
// steps the incremental collector takes (§3.4.2): ScanRec and CopyRec
// records keep appending from the collector goroutine, so a crash at any
// quantum boundary recovers through the existing restartable-scan path —
// only who holds which latch while the records are written changes. Because
// stable transports append copy records, and recovery asserts copy records
// arrive in copy-pointer order, every stable copier is serialized: the flip,
// scan quanta and gray drains run under the exclusive stop latch, and
// transports under transMu while holding it shared — each pair mutually
// exclusive.

// concState is the bookkeeping either collector keeps for a mostly-
// concurrent collection. transMu serializes mutator transports against each
// other (the collector goroutine holds the stop latch exclusively, so it
// cannot race them). concReserve is the to-space headroom kept free for copies
// still in flight.
type concState struct {
	concActive     bool
	concReserve    int    // from-space words still to copy at the flip
	concBaseCopied uint64 // the collector's CopiedWords at the flip
	transMu        sync.Mutex
}

// concRemainingWords returns the to-space words still reserved for
// in-flight copies: the reserve minus what has been copied since the flip.
func (s *concState) concRemainingWords(copied uint64) int {
	if rem := s.concReserve - int(copied-s.concBaseCopied); rem > 0 {
		return rem
	}
	return 0
}

// ConcurrentActive reports whether a concurrent scan is in flight.
func (s *concState) ConcurrentActive() bool { return s.concActive }

func spaceUsedWords(s *heap.Space) int {
	return word.BytesToWords(int(s.CopyPtr-s.Lo) + int(s.Hi-s.AllocPtr))
}

// StartConcurrent performs the stop-the-world flip of a mostly-concurrent
// collection and returns the number of newly stable objects moved. The
// caller schedules ScanQuantum until it reports no work, then calls
// FinishConcurrent. The nursery must be empty at the flip (the core runs a
// minor collection first): the scan never visits the nursery, so a
// pre-flip nursery object could smuggle a from-space pointer past it.
func (v *VolatileCollector) StartConcurrent() int {
	if v.concActive {
		panic("gc: concurrent collection already active")
	}
	if v.nursery != nil && v.nurseryUsedWords() > 0 {
		panic("gc: concurrent flip with a non-empty nursery")
	}
	start := time.Now()
	c := v.flip(false)
	v.Met.Conc.Collections.Inc()
	v.begin(c, nil, true)
	v.scanMoved(c)
	n := v.logMoves()
	// The flip is the collection as far as the log is concerned; the
	// scan that follows is pure unlogged copying.
	v.log.Append(wal.VFlipRec{Epoch: v.epoch, Moved: n})
	v.concReserve = spaceUsedWords(c.from[0])
	v.concBaseCopied = v.Met.CopiedWords.Load()
	v.major = c
	v.concActive = true
	handOff(&v.relocs, v.hooks.Relocate)
	d := time.Since(start)
	v.Met.Conc.FlipPause.Observe(uint64(d))
	v.Met.Pause.Observe(uint64(d))
	v.bb.SetGCEpoch(v.epoch)
	v.bb.Span(obs.EvVGCFlip, d, 0, v.epoch, 1)
	return n
}

// ScanQuantum advances the parked cycle's scan by roughly budgetWords of
// work and reports whether work remains. The caller must exclude mutators
// (the core's collector goroutine holds the stop latch exclusively per
// quantum).
func (v *VolatileCollector) ScanQuantum(budgetWords int) bool {
	if !v.concActive {
		return false
	}
	start := time.Now()
	more := v.scan(v.major, budgetWords)
	v.Met.Conc.Quanta.Inc()
	v.Met.Conc.Quantum.Since(start)
	return more
}

// Load is the mutator read barrier: it forwards p out of from-space
// if the concurrent scan has not reached it yet. Mutators call it under
// the shared stop latch; transMu serializes their copies against each
// other (the collector goroutine holds the latch exclusively, so it cannot
// race them).
func (v *VolatileCollector) Load(p word.Addr) word.Addr {
	v.transMu.Lock()
	defer v.transMu.Unlock()
	if !v.concActive || !v.major.inFrom(p) {
		return p
	}
	v.Met.Conc.Transports.Inc()
	defer handOff(&v.relocs, v.hooks.Relocate)
	return v.evacuate(v.major, p)
}

// EvacuateGray evacuates one grayed (SATB-overwritten) pointer target.
// Called with mutators stopped, before any transaction abort can restore
// the overwritten value.
func (v *VolatileCollector) EvacuateGray(p word.Addr) {
	if !v.concActive || p.IsNil() || !v.major.inFrom(p) {
		return
	}
	v.evacuate(v.major, p)
	handOff(&v.relocs, v.hooks.Relocate)
}

// FinishConcurrent drains the remaining scan work inline and retires the
// from-space. Called with mutators stopped.
func (v *VolatileCollector) FinishConcurrent() {
	if !v.concActive {
		return
	}
	// The drain is a stall like any quantum: counted and timed as one.
	for v.ScanQuantum(1 << 30) {
	}
	v.retire(v.major)
	v.concActive, v.major = false, nil
}

// AbandonConcurrent forgets an in-flight concurrent collection without
// touching memory — the crash path. The flip was fully logged, so recovery
// treats the interrupted scan as a completed collection.
func (v *VolatileCollector) AbandonConcurrent() {
	v.concActive, v.major = false, nil
}

// ConcFromContains reports whether a falls in the from-space of the
// in-flight concurrent collection.
func (v *VolatileCollector) ConcFromContains(a word.Addr) bool {
	return v.concActive && v.major.inFrom(a)
}
