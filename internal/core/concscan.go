package core

import (
	"context"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"stableheap/internal/obs"
	"stableheap/internal/storage"
	"stableheap/internal/word"
)

// The concurrent-scan driver (Config.ConcurrentVGC, StableGC: gc.Concurrent).
//
// A mostly-concurrent collection (gc/concurrent.go) flips stop-the-world in
// collectVolatile / startStableGC — all the logged root, remembered-set and
// LS work — and hands the scan to a concScan. The Heap holds one per area,
// vscan and sscan; everything here is written once, and the two differ only
// in the collector plugged in and the area's retire function. The scanner
// runs one quantum at a time under the gate held exclusively, so mutators
// are never blocked for longer than one quantum and the stop latch is not
// involved at all (the stable scan's records keep appending from the
// collector goroutine, which the WAL protocol permits because every step is
// restartable). Mutators in between run shared behind load and gray. Any
// exclusive section that needs the scan gone (a stable flip, the next
// volatile collection, Close) retires it inline via retire.

// scanQuantumWords bounds the words scanned per collector-goroutine (or
// commit-assist) quantum — small enough that a mutator blocked on the gate
// (or assisting inline) waits a few hundred microseconds at worst, even
// counting the evacuations a scanned object can trigger through the
// word-at-a-time page-table read path, large enough to amortize the gate
// handoff and the stable area's per-page scan records. The volatile scan is
// slot-granular: an object wider than the remaining budget pauses
// mid-object and resumes at the next quantum.
const scanQuantumWords = 256

// scanCollector is what the driver needs of a collector; gc.Collector and
// gc.VolatileCollector both satisfy it.
type scanCollector interface {
	ConcurrentActive() bool
	Epoch() uint64
	ScanQuantum(budgetWords int) bool
	Load(p word.Addr) word.Addr
	EvacuateGray(p word.Addr)
	ConcFromContains(a word.Addr) bool
	AbandonConcurrent()
}

// concScan drives one area's concurrent scans.
type concScan struct {
	hp *Heap
	// on publishes "a scan is in flight": while set, ordinary actions hold
	// the gate shared (latch.go) and pointer loads go through load. It only
	// transitions with the stop latch held exclusively.
	on        atomic.Bool
	c         scanCollector
	satb      *obs.Counter  // the area's SATB deletion-barrier hits
	quantumEv obs.EventKind // flight-recorder event of one quantum
	label     string        // the collector goroutine's pprof "subsystem"
	// retire drives the area's collection to completion inline — the one
	// place the areas differ (see finishConcurrentLocked and
	// finishStableGCLocked). Called with the stop latch held exclusively; a
	// no-op when nothing is active.
	retire func()
}

// start publishes the scan and starts the collector goroutine. Called with
// the stop latch held exclusively, right after the flip; the gate is
// acquired here if this exclusive section does not hold it yet, so the
// scanner cannot run before the section ends.
func (s *concScan) start() {
	hp := s.hp
	s.on.Store(true)
	if !hp.gateHeldExcl {
		hp.gate.Lock()
		hp.gateHeldExcl = true
	}
	if hp.cfg.ManualScan {
		return // paced explicitly via StepVolatileScan / StepStableScan
	}
	hp.scanWG.Add(1)
	go s.loop(s.c.Epoch())
}

// step advances an in-flight scan by one quantum under the exclusive gate
// and reports whether scan work remains. A nonzero epoch names the
// collection the caller serves (epochs start at 1): if an exclusive section
// finished that one inline — and possibly started a newer one — step
// touches nothing. A no-op returning false when no scan is active.
func (s *concScan) step(epoch uint64) bool {
	if !s.on.Load() {
		return false
	}
	hp := s.hp
	hp.gate.Lock()
	defer hp.endQuantum()
	if e := hp.failed.Load(); e != nil {
		panic(*e)
	}
	if !s.c.ConcurrentActive() || (epoch != 0 && s.c.Epoch() != epoch) {
		return false
	}
	hp.drainGrayLocked()
	start := time.Now()
	more := s.c.ScanQuantum(scanQuantumWords)
	hp.bb.Span(s.quantumEv, time.Since(start), 0, s.c.Epoch(), 0)
	return more
}

// endQuantum releases the gate a quantum ran under; a device fault that
// unwinds the quantum fail-stops the heap first, as runlock does.
func (hp *Heap) endQuantum() {
	r := recover()
	hp.noteFault(r)
	hp.gate.Unlock()
	if r != nil {
		panic(r)
	}
}

// assist lets a mutator that just committed advance an in-flight scan by
// one quantum (all latches already released). On a multi-core host the
// collector goroutine does nearly all the work and the assist is a cheap
// atomic load; with GOMAXPROCS=1 the goroutine is starved by a busy
// mutator, and without the assist every scan would be drained inline by the
// next exclusive section — a stop-the-world pause in disguise. Manual
// pacing mode opts out: there the harness owns every scan step.
func (s *concScan) assist() {
	if !s.on.Load() || s.hp.cfg.ManualScan || s.step(0) {
		return
	}
	// No scan work left: retire the collection now instead of waiting for
	// the collector goroutine (starved for whole scheduler slices on a
	// uniprocessor) — every load pays the read barrier until retirement,
	// and to-space keeps the copy reserve off limits.
	s.tryFinish(0)
}

// loop is the collector goroutine: it advances the scan of collection epoch
// in gate-sized quanta and then retires it.
func (s *concScan) loop(epoch uint64) {
	defer s.hp.scanWG.Done()
	// CPU profiles separate collector work from mutator work by these
	// labels (obs.Serve wires /debug/pprof/).
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
		pprof.Labels("subsystem", s.label, "epoch", strconv.FormatUint(epoch, 10))))
	// A device fault injected under the scanner (internal/faultfs)
	// surfaces as a typed panic, which has failed the heap on its way
	// through the gate or the latch (endQuantum, unlockExclusive); the
	// scan simply stops, and the next action on the heap re-raises the
	// fault in a context that can report it.
	defer func() {
		if r := recover(); r != nil {
			if _, ok := storage.AsDeviceError(r); !ok {
				panic(r)
			}
		}
	}()
	for s.step(epoch) {
		runtime.Gosched()
	}
	s.tryFinish(epoch)
}

// tryFinish retires the collection if it is still the one the caller was
// serving (epoch as in step).
func (s *concScan) tryFinish(epoch uint64) {
	s.hp.lockExclusive()
	defer s.hp.unlockExclusive()
	if s.c.ConcurrentActive() && (epoch == 0 || s.c.Epoch() == epoch) {
		s.retire()
	}
}

// abandon forgets an in-flight scan without touching memory — the crash
// path, stop latch held exclusively. A volatile scan simply vanishes: it
// was pure unlogged copying and the flip record is already in the log. A
// stable scan's steps are all in the log; recovery restores the interrupted
// collection from its records.
func (s *concScan) abandon() {
	if !s.on.Load() {
		return
	}
	s.hp.grayMu.Lock()
	s.hp.grayQ = nil
	s.hp.grayMu.Unlock()
	s.c.AbandonConcurrent()
	s.on.Store(false)
}

// load is the transporting read barrier: during a concurrent scan every
// pointer load is transported out of the area's from-space, so mutators
// never observe — and never store — a from-space address after the flip.
func (s *concScan) load(p word.Addr) word.Addr {
	if p.IsNil() || !s.on.Load() {
		return p
	}
	return s.c.Load(p)
}

// gray is the snapshot-at-the-beginning deletion barrier: a from-space
// pointer value about to be overwritten joins the gray stack, to be
// evacuated at the next exclusive section or scan quantum — always before
// any abort could restore it into a scanned object.
func (s *concScan) gray(old word.Addr) {
	if !s.on.Load() || !s.c.ConcFromContains(old) {
		return
	}
	s.hp.grayMu.Lock()
	s.hp.grayQ = append(s.hp.grayQ, old)
	s.hp.grayMu.Unlock()
	s.satb.Inc()
}

// finishConcurrentLocked is the volatile area's retire: remaining copies
// drain, from-space is discarded, the flag clears, and the deferred
// stable-GC trigger is re-checked.
func (hp *Heap) finishConcurrentLocked() {
	if hp.vgc == nil || !hp.vgc.ConcurrentActive() {
		return
	}
	hp.drainGrayLocked()
	epoch := hp.vgc.Epoch()
	start := time.Now()
	hp.vgc.FinishConcurrent()
	hp.vscan.on.Store(false)
	hp.bb.Span(obs.EvVGCFinish, time.Since(start), 0, epoch, 0)
	hp.maybeStartStableGC()
}

// finishStableGCLocked is the stable area's retire, and more: it drives
// the active stable collection (if any, concurrent or not) to completion
// inline. For a concurrent collection the gray stack drains first — grayed
// targets push the copy pointer, and from-space must not be discarded with
// live data behind an undrained gray — then the scan runs to completion
// and the GCEnd work (write-back, discard) happens here. unlockExclusive's
// syncCoarse then clears the flag and records the finish event. A
// collection that may be concurrent is only ever finished through here
// (direct sgc.Finish calls are guarded by !ConcurrentActive or run in
// recovery before any scan is published), so no gray is left undrained.
func (hp *Heap) finishStableGCLocked() {
	if hp.sgc.ConcurrentActive() {
		hp.drainGrayLocked()
	}
	hp.sgc.Finish()
}
