package core

import (
	"sort"
	"sync"
	"time"

	"stableheap/internal/obs"
	"stableheap/internal/storage"
	"stableheap/internal/word"
)

// The action latch (sharded).
//
// The paper's model makes low-level actions indivisible (§2.1). The original
// implementation realized that with a single mutex; this file splits it so
// independent transactions run in parallel while every collector-visible
// state change still happens in a globally exclusive section:
//
//   - stop is the coarse latch. Read (shared) mode admits ordinary
//     transaction actions concurrently; write (exclusive) mode — "stop the
//     heap" — is taken by everything that moves objects, flips semispaces,
//     walks the whole transaction table, or checkpoints: collection steps,
//     volatile collections, stability tracking, abort/undo, checkpoint,
//     crash, recovery, 2PC resolution.
//
//   - shards stripe writers by page: an update action holds exactly one
//     shard — the page of the slot it writes — across the {WAL append,
//     memory write} pair, so per-page append order matches memory-write
//     order and a flushed page can never carry a pageLSN newer than a
//     memory write it missed (the lost-update hazard). Readers take no
//     shard: object read locks already exclude same-slot writers, and the
//     one-level store copies words out under its own lock.
//
//   - coarse mirrors "the stable collector is active". While a collection
//     is in progress every action goes exclusive, preserving the paper's
//     GC atomicity argument verbatim (Ch. 3): barrier traps, transports,
//     and scan steps never interleave with mutator actions. coarse only
//     transitions inside exclusive sections, so a shared holder that
//     observed coarse == false keeps that truth for its whole critical
//     section.
//
//   - gate is the mostly-concurrent collection gate (Config.ConcurrentVGC
//     and the gc.Concurrent stable collector). While a concurrent scan is in flight
//     (scanning(): either area's concScan flag), ordinary actions
//     additionally hold gate shared and the collector goroutine
//     runs each scan quantum under gate exclusive: copying excludes
//     mutators one quantum at a time without ever taking the stop latch,
//     which is exactly how the scan stays off the mutator's critical path.
//     Both flags only transition with stop held exclusively, so a shared
//     holder's view of them is stable for its whole critical section.
//     Exclusive sections acquire the gate too (gateHeldExcl) — the
//     collector goroutine must not run while the heap is stopped — and
//     drain the SATB gray stack on entry, so aborts always see evacuated
//     undo values. During a concurrent *stable* scan, coarse stays false:
//     the collection is active but mutator actions keep running shared,
//     which is the whole point.
//
// Lock order: stop → gate → {sgc.transMu → shard, vgc.transMu} →
// {ckpt.mu, vm.mu → wal.mu, txm.mu → txm.undoMu, lock.mu, grayMu, remMu}.
// Ordinary updates take their one shard directly; a stable transport takes
// transMu first, then the shards of the pages its logged copy writes (no
// writer ever waits on transMu while holding a shard, so the nesting
// cannot deadlock). Subsystem mutexes never call back into the latch.
//
// The stopper owns vm.mu: stopHeap takes it once, after stop and gate
// (vm.Store.Own), and releaseExclusive drops it before the gate. Every vm
// caller holds the stop latch or the gate (or runs before the heap is
// shared), so no one else can be inside the store meanwhile, and the
// section's collections, tracking, checkpoint and abort pay no lock per
// word. Metrics takes no latch: every registered counter is atomic.
//
// Fail-stop: a device fault (a typed storage panic, storage.AsDeviceError)
// that unwinds a latched section leaves an action half done — space
// allocated and its copy record never appended, say — so from that moment
// the log is no longer the heap's history. The release functions below run
// as the deferred calls of those sections; they note the fault in hp.failed
// before the latch opens, and every later acquisition re-raises it instead
// of running. Only Crash gets in (stopHeap), and recovery from the devices
// is the way back.
func (hp *Heap) rlock() (excl bool) {
	for {
		if hp.coarse.Load() {
			hp.lockExclusive()
			return true
		}
		hp.stop.RLock()
		if hp.coarse.Load() {
			// A collection flipped on between the check and the RLock;
			// fall back to the exclusive path.
			hp.stop.RUnlock()
			continue
		}
		if e := hp.failed.Load(); e != nil {
			hp.stop.RUnlock()
			panic(*e)
		}
		if hp.scanning() {
			// Neither flag can change while we hold stop shared, so the
			// matching runlock releases the gate iff one is set here.
			hp.gate.RLock()
		}
		return false
	}
}

// noteFault makes the heap fail-stop if r, a recovered panic value, is a
// device fault, and the call that does so marks it in the flight recorder
// (EvCrash with fail-stop = 1). Callers still hold the latch the fault
// unwound through.
func (hp *Heap) noteFault(r any) {
	if e, ok := storage.AsDeviceError(r); ok {
		fault := e // allocated here, on the fault, not on every release
		if hp.failed.CompareAndSwap(nil, &fault) {
			hp.bb.Record(obs.EvCrash, 0, 1, 0)
		}
	}
}

// failStop is deferred around the device work a commit or a prepare does
// with no latch held — its force and the checkpointer's promotion: a fault
// there fail-stops the heap just as one under the latch does, and goes on.
func (hp *Heap) failStop() {
	if r := recover(); r != nil {
		hp.noteFault(r)
		panic(r)
	}
}

// scanning reports whether either area's concurrent scan is in flight (the
// two atomic loads every action pays for the concurrent modes).
func (hp *Heap) scanning() bool { return hp.vscan.on.Load() || hp.sscan.on.Load() }

// runlock releases what rlock acquired. As a deferred call it sees the
// panic unwinding its section (fail-stop, above) and passes it on.
func (hp *Heap) runlock(excl bool) {
	r := recover()
	hp.noteFault(r)
	if excl {
		hp.releaseExclusive()
	} else {
		if hp.scanning() {
			hp.gate.RUnlock()
		}
		hp.stop.RUnlock()
	}
	if r != nil {
		panic(r)
	}
}

// lockExclusive stops the heap: it waits for every in-flight shared action
// to drain and blocks new ones. The wait is recorded in the latch_stop
// histogram (the price of a flip or checkpoint under load; 0 when neither
// the latch nor the gate was taken). With a concurrent scan in flight it
// also parks the collector goroutine (gate) and drains the gray stack. On a
// failed heap it re-raises the fault.
func (hp *Heap) lockExclusive() {
	hp.stopHeap()
	if e := hp.failed.Load(); e != nil {
		hp.releaseExclusive()
		panic(*e)
	}
}

// stopHeap is lockExclusive without the fail-stop check: Crash's way in. A
// failed heap's gray stack is left alone — draining it would log copies
// after the action the fault tore.
func (hp *Heap) stopHeap() {
	// The clock is read only on contention, as wal's appendLocked does: an
	// uncontended stop records a zero wait.
	var start time.Time
	if !hp.stop.TryLock() {
		start = time.Now()
		hp.stop.Lock()
	}
	// The gate is taken unconditionally, not just when scanning: a collector
	// goroutine whose collection was retired inline can still be between
	// quanta, and it re-checks liveness under the gate — so any exclusive
	// section that might restart the collector state must already exclude
	// it. Uncontended, this is a handful of nanoseconds on a path that just
	// paid for draining every shared action.
	if !hp.gate.TryLock() {
		if start.IsZero() {
			start = time.Now()
		}
		hp.gate.Lock()
	}
	hp.gateHeldExcl = true
	hp.mem.Own()
	if hp.scanning() && hp.failed.Load() == nil {
		hp.drainGrayLocked()
	}
	var wait time.Duration
	if !start.IsZero() {
		wait = time.Since(start)
	}
	hp.met.LatchStop.Observe(uint64(wait))
	if wait > latchStallThreshold {
		hp.bb.Span(obs.EvLatchStall, wait, 0, 0, 0)
	}
}

// latchStallThreshold is the exclusive-acquisition wait beyond which a
// latch-stall event lands in the flight recorder: long enough that the
// uncontended path (nanoseconds) and routine drains (microseconds) never
// record, short enough to catch any stall a watchdog rule would trip on.
const latchStallThreshold = time.Millisecond

// unlockExclusive republishes the collector-activity mirror and releases
// the stop latch. Every exclusive section that may have started or finished
// a stable collection exits through here; as a deferred call it handles a
// panic as runlock does.
func (hp *Heap) unlockExclusive() {
	r := recover()
	hp.noteFault(r)
	hp.releaseExclusive()
	if r != nil {
		panic(r)
	}
}

func (hp *Heap) releaseExclusive() {
	hp.syncCoarse()
	hp.mem.Release()
	if hp.gateHeldExcl {
		hp.gateHeldExcl = false
		hp.gate.Unlock()
	}
	hp.stop.Unlock()
}

// drainGrayLocked evacuates every grayed (SATB-overwritten) pointer
// target. Callers hold the gate exclusively (via lockExclusive or the
// collector goroutine), so no mutator races the copies. One queue serves
// both areas: each entry is dispatched to whichever collector's from-space
// contains it (the other's evacuate is a cheap range-check no-op).
func (hp *Heap) drainGrayLocked() {
	for {
		hp.grayMu.Lock()
		q := hp.grayQ
		hp.grayQ = nil
		hp.grayMu.Unlock()
		if len(q) == 0 {
			return
		}
		for _, p := range q {
			if hp.vgc != nil {
				hp.vgc.EvacuateGray(p)
			}
			hp.sgc.EvacuateGray(p)
		}
	}
}

// syncCoarse refreshes the collector-activity mirror. Callers hold the stop
// latch exclusively (or run single-threaded, during build and recovery).
// A concurrent stable collection keeps coarse false — mutator actions run
// shared behind the gate and the read barrier — and this is also where a
// retired concurrent collection stops routing loads through the barrier.
func (hp *Heap) syncCoarse() {
	if hp.sscan.on.Load() && !hp.sgc.ConcurrentActive() {
		hp.sscan.on.Store(false)
		hp.bb.Record(obs.EvSGCFinish, 0, hp.sgc.Epoch(), 0)
	}
	hp.coarse.Store(hp.sgc.Active() && !hp.sscan.on.Load())
}

// latchShards is the number of per-page writer stripes.
const latchShards = 64

// shardOf returns the writer stripe for the page containing a.
func (hp *Heap) shardOf(a word.Addr) *sync.Mutex {
	return &hp.shards[(uint64(a)/uint64(hp.cfg.PageSize))%uint64(len(hp.shards))]
}

// shardHold is a writer stripe lockShard took, or none.
type shardHold struct{ mu *sync.Mutex }

func (s shardHold) unlock() {
	if s.mu != nil {
		s.mu.Unlock()
	}
}

// lockShard takes the writer stripe for slot unless the action already runs
// exclusively (exclusive sections exclude all writers by themselves). The
// hold is a value, so taking a stripe allocates nothing.
func (hp *Heap) lockShard(excl bool, slot word.Addr) shardHold {
	if excl {
		return shardHold{}
	}
	sh := hp.shardOf(slot)
	sh.Lock()
	return shardHold{sh}
}

// lockShardsForCopy pins the writer shards striping the pages of
// [to, to+sizeWords), in index order, for a stable transport's logged copy.
// Consecutive pages stripe to consecutive shards, so the first
// min(pages, shards) of them are distinct and cover every page. Mutator
// writers hold exactly one shard and never wait on the transport mutex, so
// the multi-shard acquisition cannot deadlock against them.
func (hp *Heap) lockShardsForCopy(to word.Addr, sizeWords int) func() {
	ps, n := uint64(hp.cfg.PageSize), uint64(len(hp.shards))
	first := uint64(to) / ps
	last := (uint64(to.Add(sizeWords)) - 1) / ps
	idx := make([]int, min(last-first+1, n))
	for k := range idx {
		idx[k] = int((first + uint64(k)) % n)
	}
	sort.Ints(idx)
	for _, i := range idx {
		hp.shards[i].Lock()
	}
	return func() {
		for k := len(idx) - 1; k >= 0; k-- {
			hp.shards[idx[k]].Unlock()
		}
	}
}
