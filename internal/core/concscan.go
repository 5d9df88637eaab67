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
// runs one quantum at a time as a heap stop (lockExclusive …
// unlockExclusive), the paper's atomic incremental step (Ch. 3): mutators
// are never blocked for longer than one quantum, and between quanta they
// run shared behind load and gray. The stable scan's records keep appending
// from the collector goroutine, which the WAL protocol permits because
// every step is restartable. Any exclusive section that needs the scan gone
// (a stable flip, the next volatile collection, Close) retires it inline
// via retire.

// scanQuantumWords bounds the words scanned per collector-goroutine (or
// commit-assist) quantum — small enough that a mutator blocked behind the
// quantum's heap stop (or assisting inline) waits a few hundred
// microseconds at worst, even counting the evacuations a scanned object can
// trigger, large enough to amortize the stop and the stable area's per-page
// scan records. The volatile scan is slot-granular: an object wider than
// the remaining budget pauses mid-object and resumes at the next quantum.
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
	// on publishes "a scan is in flight": while set, pointer loads go
	// through load and overwrites through gray, and every heap stop drains
	// the gray stack. It only transitions with the stop latch held
	// exclusively.
	on atomic.Bool
	// epoch is the collector epoch of the scan start last published: a
	// collector goroutine serving an older one leaves without taking the
	// latch (stale).
	epoch     atomic.Uint64
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
// the stop latch held exclusively, right after the flip, so the scanner's
// first quantum waits for the section to end.
func (s *concScan) start() {
	epoch := s.c.Epoch()
	s.epoch.Store(epoch)
	s.on.Store(true)
	if s.hp.cfg.ManualScan {
		return // paced explicitly via StepVolatileScan / StepStableScan
	}
	s.hp.scanWG.Add(1)
	go s.loop(epoch)
}

// stale reports, without a latch, that the collection the caller serves is
// gone: no scan is in flight, or a nonzero epoch (epochs start at 1) names
// one an exclusive section has since retired inline — and possibly
// replaced. A false answer is only a hint; the caller re-checks under the
// latch.
func (s *concScan) stale(epoch uint64) bool {
	return !s.on.Load() || (epoch != 0 && s.epoch.Load() != epoch)
}

// serves is stale's answer under the stop latch, from the collector
// itself: the collection epoch names (any, for 0) is still in flight.
func (s *concScan) serves(epoch uint64) bool {
	return s.c.ConcurrentActive() && (epoch == 0 || s.c.Epoch() == epoch)
}

// step advances an in-flight scan by one quantum, one heap stop, and
// reports whether scan work remains. epoch names the collection the caller
// serves, or 0 for whichever is in flight: a stale caller touches nothing.
// The stop drains the gray stack on entry and re-raises a fail-stop fault
// (lockExclusive). A no-op returning false when no scan is active.
func (s *concScan) step(epoch uint64) bool {
	if s.stale(epoch) {
		return false
	}
	hp := s.hp
	hp.lockExclusive()
	defer hp.unlockExclusive()
	if !s.serves(epoch) {
		return false
	}
	start := time.Now()
	more := s.c.ScanQuantum(scanQuantumWords)
	hp.bb.Span(s.quantumEv, time.Since(start), 0, s.c.Epoch(), 0)
	return more
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
// one quantum at a time and then retires it.
func (s *concScan) loop(epoch uint64) {
	defer s.hp.scanWG.Done()
	// CPU profiles separate collector work from mutator work by these
	// labels (obs.Serve wires /debug/pprof/).
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
		pprof.Labels("subsystem", s.label, "epoch", strconv.FormatUint(epoch, 10))))
	// A device fault injected under the scanner (internal/faultfs)
	// surfaces as a typed panic, which has failed the heap on its way
	// through the latch (unlockExclusive); the scan simply stops, and the
	// next action on the heap re-raises the fault in a context that can
	// report it.
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
// serving (epoch as in step); a stale caller takes no latch.
func (s *concScan) tryFinish(epoch uint64) {
	if s.stale(epoch) {
		return
	}
	s.hp.lockExclusive()
	defer s.hp.unlockExclusive()
	if s.serves(epoch) {
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
// evacuated at the next heap stop (a scan quantum is one) — always before
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
