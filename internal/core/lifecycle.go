package core

import (
	"errors"
	"fmt"
	"time"

	"stableheap/internal/lock"
	"stableheap/internal/obs"
	"stableheap/internal/recovery"
	"stableheap/internal/storage"
	"stableheap/internal/tx"
	"stableheap/internal/vm"
	"stableheap/internal/wal"
	"stableheap/internal/word"
)

// Checkpoint takes a fuzzy checkpoint (§2.2.4): the system is quiesced at
// a low-level action boundary (the latch), one record is spooled, and the
// master block is updated lazily once ordinary log traffic makes the
// record stable. No synchronous writes; it bounds the work of the next
// recovery.
func (hp *Heap) Checkpoint() word.LSN {
	hp.lockExclusive()
	defer hp.unlockExclusive()
	return hp.checkpointLocked()
}

func (hp *Heap) checkpointLocked() word.LSN {
	cp := wal.CheckpointRec{
		Txs:             hp.txm.TableEntries(),
		StableCur:       hp.sgc.CurrentIndex(),
		RootObj:         hp.rootObj,
		StableAlloc:     hp.sgc.Current().CopyPtr,
		StableAllocHigh: hp.sgc.Current().AllocPtr,
		GC:              hp.sgc.State(),
		VolatileLo:      hp.volLo,
		VolatileHi:      hp.volatileEnd(),
		NextTx:          hp.txm.NextTxID(),
	}
	if !hp.cfg.Undivided {
		cp.VolatileCur = hp.vgc.CurrentIndex()
		cp.NextEpoch = hp.vgc.Epoch() + 1
		for a := range hp.ls {
			cp.LS = append(cp.LS, a)
		}
		cp.SRem = hp.stableSlots()
	}
	lsn := hp.ckpt.Take(cp)
	hp.bb.Record(obs.EvCheckpoint, 0, uint64(lsn), 0)
	return lsn
}

// TruncateLog frees reclaimable log space (callable any time; policy is
// the caller's). It stops nothing: nothing at run time reads below the
// promoted checkpoint's floor (DESIGN.md §14 "Truncate ordering").
func (hp *Heap) TruncateLog() {
	defer hp.runlock(hp.rlock())
	hp.ckpt.TruncateLog()
}

// Close shuts the heap down cleanly: any in-flight concurrent scan
// retires, active transactions abort, a running stable collection
// completes, dirty pages flush, a final checkpoint is forced and the
// devices close. Open over the same backings reopens the heap from that
// checkpoint.
func (hp *Heap) Close() {
	hp.wd.Stop()
	// Let every commit parked on a force finish first (commitGate).
	hp.commitGate.Lock()
	defer hp.commitGate.Unlock()
	func() {
		hp.lockExclusive()
		defer hp.unlockExclusive()
		hp.finishConcurrentLocked()
		hp.txm.AbortAll()
		if hp.sgc.Active() {
			hp.finishStableGCLocked()
		}
		hp.mem.FlushAll()
		hp.checkpointLocked()
		hp.ckpt.ForcePromote()
	}()
	// The collector goroutine (if any) saw its collection retired above and
	// is on its way out; it must not outlive the heap it scans.
	hp.scanWG.Wait()
	// Release the devices last, once every layer above has flushed through
	// them; Open over their backings reopens the heap.
	hp.logDev.Close()
	hp.disk.Close()
}

// Crash simulates a system failure (§2.2.2): main memory, the volatile
// log tail, the lock table and the transaction table vanish; the disk and
// the stable log survive in their backings. The devices are released as a
// process kill releases its files (no flush, no sync) and returned dead:
// Open over their backings (storage.Backings) is the restart.
//
// Crash is also the only call a heap accepts once a device has failed under
// it: the heap is fail-stop, so after a typed device panic (storage.ErrIO,
// storage.ErrCorrupt) has unwound one operation, every other call — on any
// goroutine — panics with that same error rather than run on.
func (hp *Heap) Crash() (*storage.Disk, *storage.Log) {
	hp.wd.Stop()
	// A commit parked on a force is acknowledged first (commitGate).
	hp.commitGate.Lock()
	defer hp.commitGate.Unlock()
	func() {
		hp.stopHeap() // not lockExclusive: a failed heap must still crash
		defer hp.unlockExclusive()
		// In-flight concurrent scans are forgotten, not finished: recovery
		// treats the whole volatile area as dead, and resumes a stable
		// collection where its logged steps stopped.
		hp.vscan.abandon()
		hp.sscan.abandon()
		// A fault injector applies its crash-time faults just before this
		// and records them as EvFault events (internal/faultfs), so the
		// EvCrash marker below follows them in the ring, exactly the
		// order things happened.
		hp.logDev.Crash()
		hp.mem.Crash()
		hp.locks.Reset()
		hp.txm.Crash()
		hp.bb.Record(obs.EvCrash, 0, 0, 0)
	}()
	hp.scanWG.Wait()
	hp.logDev.Abandon()
	hp.disk.Abandon()
	return hp.disk, hp.logDev
}

// Devices exposes the heap's page store and log (for the crash harness,
// which controls which pages reach disk before a crash).
func (hp *Heap) Devices() (*storage.Disk, *storage.Log) { return hp.disk, hp.logDev }

// Internal returns hp itself.
//
// Deprecated: frozen benchmark — only the harness under benchmark/ calls
// it; call hp's methods directly.
func (hp *Heap) Internal() *Heap { return hp }

// Open opens the stable heap held in two byte backings, the page store's
// (db) and the log's (lb), and decides from their bytes what it needs:
//
//   - a formatted master: crash recovery from the master's checkpoint —
//     repeating history, loser rollback, collector-state restoration and
//     the evacuation of recovered newly stable objects, bounded by the log
//     written since that checkpoint, whatever the heap's size (Ch. 4), and
//     even if the crash interrupted a collection (§3.5.3);
//   - no formatted master and an empty log: a fresh heap is formatted. A
//     first open killed before it forced anything lands here again, and
//     one killed after forcing its first checkpoint lands in media
//     recovery: the master is marked formatted only by that checkpoint's
//     promotion;
//   - no formatted master over a log that holds records: media recovery
//     (§2.2.2), every page rebuilt from the log, which must be untruncated
//     and hold a checkpoint. Open never formats over a non-empty log.
//
// A restart is always Open over the same backings: Close and Crash both
// release the devices. The persisted page size wins over the caller's
// PageSize, which applies to a fresh store; LogSegBytes, which the log's
// files do not persist, is the caller's on every open. A Config that
// Validate rejects is an error, and so is a device fault on any path: it
// names the corrupt page or LSN, and no half-opened heap is returned.
func Open(cfg Config, db, lb storage.Backing) (*Heap, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.onFiles()
	start := time.Now()
	disk, err := storage.OpenDisk(db, cfg.PageSize)
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	logDev, err := storage.OpenLog(lb, cfg.LogSegBytes)
	if err != nil {
		disk.Abandon()
		return nil, fmt.Errorf("open: %w", err)
	}
	reopen := time.Since(start)
	cfg.PageSize, cfg.LogSegBytes = disk.PageSize(), logDev.SegmentBytes()
	cfg = cfg.WithDefaults()
	var hp *Heap
	switch {
	case disk.Master().Formatted:
		hp, err = recoverHeap(cfg, disk, logDev, false)
	case logDev.EndLSN() == 1:
		hp, err = formatHeap(cfg, disk, logDev)
	default:
		hp, err = recoverMedia(cfg, disk, logDev)
	}
	if err != nil {
		logDev.Abandon()
		disk.Abandon()
		return nil, err
	}
	if hp.lastRecovery != nil {
		hp.met.Recovery.Reopen.Observe(uint64(reopen))
	}
	return hp, nil
}

// detectably is deferred by each of Open's paths: the devices report
// corruption and surfaced I/O faults as typed panics from deep inside
// scans, page reads and writes, and Open turns them into an error naming
// the corrupt page or LSN — the detectable-failure contract — never a
// half-opened heap. Any other panic goes on.
func detectably(what string, err *error) {
	if v := recover(); v != nil {
		e, ok := storage.AsDeviceError(v)
		if !ok {
			panic(v)
		}
		*err = fmt.Errorf("core: %s failed detectably: %w", what, e)
	}
}

// formatHeap formats a fresh heap on empty devices.
func formatHeap(cfg Config, disk *storage.Disk, logDev *storage.Log) (_ *Heap, err error) {
	defer detectably("format", &err)
	hp := build(cfg, disk, logDev)
	hp.format()
	hp.startWatchdog()
	return hp, nil
}

// recoverHeap rebuilds the heap from devices whose master names the
// checkpoint to start from; media says that master was synthesized from
// the log (recoverMedia).
func recoverHeap(cfg Config, disk *storage.Disk, logDev *storage.Log, media bool) (_ *Heap, err error) {
	defer detectably("recovery", &err)
	hp := build(cfg, disk, logDev)
	res, err := recovery.Recover(hp.mem, hp.log, recovery.Options{Recorder: hp.bb, Media: media})
	if err != nil {
		return nil, err
	}
	hp.lastRecovery = res
	hp.reg.Register(&hp.met.Recovery)
	hp.met.Recovery.Analysis.Observe(uint64(res.Stats.Analysis))
	hp.met.Recovery.Redo.Observe(uint64(res.Stats.Redo))
	hp.met.Recovery.Undo.Observe(uint64(res.Stats.Undo))
	cp := res.CP

	hp.rootObj = cp.RootObj
	hp.txm.SetNextTxID(cp.NextTx)

	// Restore in-doubt (prepared) transactions before anything can move
	// objects: their translation maps then track every later copy, and
	// their object write locks are reacquired so no one reads undecided
	// state.
	for _, idt := range res.InDoubt {
		id := idt.ID
		_, objs := hp.txm.RestoreInDoubt(id, idt.LastLSN, func(a word.Addr, at word.LSN) word.Addr {
			return res.Translate(id, a, at)
		})
		for _, obj := range objs {
			if err := hp.locks.TryAcquire(id, obj, lock.Write); err != nil {
				return nil, fmt.Errorf("core: cannot relock in-doubt tx %d on %v: %w", id, obj, err)
			}
		}
	}

	if !cfg.Undivided {
		hp.vgc.SetCurrentIndex(cp.VolatileCur)
		for _, a := range cp.LS {
			hp.addLS(a, hp.h.Descriptor(a).SizeWords())
		}
		for _, a := range cp.SRem {
			hp.srem[a] = true
		}
	}

	// Restore the stable collector. When a collection was in progress it
	// resumes in the configured mode — a concurrent one concurrently again,
	// so the remaining scan stays off the stop latch after recovery too;
	// otherwise only the space choice and the allocation frontier are
	// reinstated. A root copy the crash cut is redone here, after the
	// remembered set is back: the copy rebases the root's slots in it.
	hp.sgc.Restore(cp.GC, cp.StableCur)
	hp.rootObj = hp.sgc.RestoreRoot(hp.rootObj)
	if !cp.GC.Active {
		hp.sgc.SetAllocFrontier(cp.StableAlloc)
		if cp.StableAllocHigh != 0 {
			hp.sgc.SetAllocHighFrontier(cp.StableAllocHigh)
		}
		// Redo may have replayed the last collection's copies into the
		// current semispace from the idle one, which is dropped next: the
		// current semispace is owed to the disk as that collection's
		// to-space was, and until the cleaner has written it the store
		// lists the idle pages redo rebuilt among the dirty pages
		// (vm.Store.DirtyPages), so the closing checkpoint below still
		// lets a later recovery rebuild them and replay those copies.
		cur := hp.sgc.Current()
		hp.mem.Owe(cur.Lo, cur.Hi)
		// The idle semispace's replayed pages are dead (it was a freed
		// from-space); drop them.
		idle := hp.sgc.CurrentIndex() ^ 1
		lo := hp.stableLo
		hi := hp.stableLo + word.Addr(word.WordsToBytes(cfg.StableWords))
		if idle == 1 {
			lo, hi = hi, hp.stableHi
		}
		hp.mem.DiscardRange(lo, hi)
	}

	if !cfg.Undivided {
		// Evacuate recovered newly stable objects into the stable area;
		// everything else in the volatile area died with the crash.
		if len(hp.ls) > 0 {
			start := time.Now()
			if err := hp.ensureStableSpaceRecovered(); err != nil {
				return nil, err
			}
			hp.vgc.CollectRecovered()
			hp.met.Recovery.Evacuate.Since(start)
		}
		hp.clearLS()
		hp.volRootObj = hp.allocVolRootObj()
	}

	// Media recovery rebuilt every page from history that runs through
	// spaces since freed and reused; the closing checkpoint's drain writes
	// all of it back, so no later recovery replays that history again
	// through a from-space whose image the disk no longer holds.
	if media {
		hp.mem.OweLogged()
	}
	// A fresh checkpoint bounds the next recovery; forced so the master
	// advances before the heap is used.
	hp.checkpointLocked()
	hp.ckpt.ForcePromote()
	hp.ckpt.TruncateLog()
	// Recovery may have resumed an in-progress stable collection; publish
	// the collector-activity mirror so the first concurrent actions route
	// through the exclusive path (single-threaded here, no latch needed).
	hp.syncCoarse()
	if hp.sgc.ConcurrentActive() {
		// The crash interrupted a concurrent stable scan and the restore
		// above picked the collection back up mid-sweep (the recovered
		// scan pointer). Re-arm the barriers and restart the collector
		// goroutine — through the latch, so the goroutine's first quantum
		// orders after everything recovery did. (ensureStableSpaceRecovered
		// may instead have finished the collection inline; then this is
		// skipped and syncCoarse above already republished coarse.)
		hp.lockExclusive()
		hp.sscan.start()
		hp.unlockExclusive()
	}
	hp.bb.Record(obs.EvRecovery, 0, uint64(res.RedoApplied), uint64(res.RedoScanned))
	hp.startWatchdog()
	return hp, nil
}

// ensureStableSpaceRecovered makes room for the post-recovery evacuation.
// A stable collection cannot run yet (the volatile area still holds the
// recovered objects and they are unreachable through normal roots), so
// space must already exist; the sizing invariant (semispace ≥ live set)
// guarantees it except for pathological configurations.
func (hp *Heap) ensureStableSpaceRecovered() error {
	if hp.sgc.Active() {
		hp.sgc.Finish()
	}
	if hp.sgc.FreeWords() < hp.lsWords {
		return ErrHeapFull
	}
	return nil
}

// LastRecovery returns diagnostics from the recovery Open ran (nil for a
// freshly formatted heap).
func (hp *Heap) LastRecovery() *recovery.Result { return hp.lastRecovery }

// InDoubt lists prepared transactions restored by recovery and still
// awaiting the coordinator's decision.
func (hp *Heap) InDoubt() []word.TxID {
	hp.lockExclusive()
	defer hp.unlockExclusive()
	var out []word.TxID
	if hp.lastRecovery != nil {
		for _, idt := range hp.lastRecovery.InDoubt {
			if hp.txm.Lookup(idt.ID) != nil {
				out = append(out, idt.ID)
			}
		}
	}
	return out
}

// ResolveCommit applies the coordinator's commit decision to an in-doubt
// transaction.
func (hp *Heap) ResolveCommit(id word.TxID) error {
	hp.commitGate.RLock()
	defer hp.commitGate.RUnlock()
	var t *tx.Tx
	var lsn word.LSN
	err := func() error {
		hp.lockExclusive()
		defer hp.unlockExclusive()
		if t = hp.txm.Lookup(id); t == nil || !t.Prepared() {
			return fmt.Errorf("core: no in-doubt transaction %d", id)
		}
		lsn = hp.txm.PrepareCommit(t)
		return nil
	}()
	if err == nil {
		hp.finishCommit(t, lsn)
	}
	return err
}

// ResolveAbort applies the coordinator's abort decision to an in-doubt
// transaction: its effects are rolled back in place, through any object
// moves since the updates were logged.
func (hp *Heap) ResolveAbort(id word.TxID) error {
	hp.lockExclusive()
	defer hp.unlockExclusive()
	t := hp.txm.Lookup(id)
	if t == nil || !t.Prepared() {
		return fmt.Errorf("core: no in-doubt transaction %d", id)
	}
	hp.txm.Abort(t)
	return nil
}

// ResolveWith resolves every in-doubt transaction by asking decide for its
// fate — the participant side of presumed-abort two-phase commit recovery,
// where decide consults the coordinator's decision log (internal/shard).
// It returns how many transactions were committed and aborted.
func (hp *Heap) ResolveWith(decide func(word.TxID) bool) (commits, aborts int, err error) {
	for _, id := range hp.InDoubt() {
		if decide(id) {
			if err := hp.ResolveCommit(id); err != nil {
				return commits, aborts, err
			}
			commits++
		} else {
			if err := hp.ResolveAbort(id); err != nil {
				return commits, aborts, err
			}
			aborts++
		}
	}
	return commits, aborts, nil
}

// --- introspection -------------------------------------------------------

// Config returns the heap's configuration.
func (hp *Heap) Config() Config { return hp.cfg }

// Log returns the log manager (read-only use: stats, inspection).
func (hp *Heap) Log() *wal.Manager { return hp.log }

// StableCollector exposes the stable-area collector (stats, policy).
func (hp *Heap) StableCollector() interface {
	Active() bool
	Epoch() uint64
} {
	return hp.sgc
}

// CollectStable runs (or finishes) a full stable-area collection.
func (hp *Heap) CollectStable() {
	hp.lockExclusive()
	defer hp.unlockExclusive()
	hp.collectStableLocked()
}

// StepStable advances an active stable collection by one quantum,
// reporting whether it is still active (the benchmark harness paces
// collections explicitly).
func (hp *Heap) StepStable() bool {
	hp.lockExclusive()
	defer hp.unlockExclusive()
	if !hp.sgc.Active() {
		return false
	}
	if hp.sgc.ConcurrentActive() {
		// Grayed targets must be evacuated before from-space can be
		// declared drained, and they push the copy pointer the step below
		// compares against.
		hp.drainGrayLocked()
	}
	return hp.sgc.Step()
}

// StartStableCollection flips the stable area without finishing the
// collection; subsequent mutator activity (and StepStable) drives it
// incrementally.
func (hp *Heap) StartStableCollection() {
	hp.lockExclusive()
	defer hp.unlockExclusive()
	if !hp.sgc.Active() {
		hp.startStableGC()
	}
}

// CollectVolatile runs one volatile-area collection (divided mode),
// returning the number of newly stable objects moved to the stable area.
// Collections also run automatically when the volatile area fills.
func (hp *Heap) CollectVolatile() (int, error) {
	hp.lockExclusive()
	defer hp.unlockExclusive()
	if hp.cfg.Undivided {
		return 0, nil
	}
	before := hp.vgc.Met.MovedObjs.Load()
	if err := hp.collectVolatile(); err != nil {
		return 0, err
	}
	return int(hp.vgc.Met.MovedObjs.Load() - before), nil
}

// CollectNursery runs one minor collection (divided mode with a nursery),
// promoting nursery survivors into the aged volatile space, returning the
// number of objects promoted. Falls back to a full volatile collection
// when the aged space cannot absorb the nursery.
func (hp *Heap) CollectNursery() (int, error) {
	hp.lockExclusive()
	defer hp.unlockExclusive()
	if hp.nurLo == 0 {
		return 0, nil
	}
	before := hp.vgc.Met.Nursery.PromotedObjs.Load()
	if err := hp.collectNursery(); err != nil {
		return 0, err
	}
	return int(hp.vgc.Met.Nursery.PromotedObjs.Load() - before), nil
}

// ConcurrentScanActive reports whether a mostly-concurrent volatile scan
// is in flight.
func (hp *Heap) ConcurrentScanActive() bool { return hp.vscan.on.Load() }

// StableScanActive reports whether a concurrent stable scan is in flight.
func (hp *Heap) StableScanActive() bool {
	hp.stop.RLock()
	defer hp.stop.RUnlock()
	return hp.sscan.on.Load()
}

// StepVolatileScan and StepStableScan advance the area's in-flight scan by
// one quantum from the calling goroutine (Config.ManualScan mode, where no
// collector goroutine exists) and report whether scan work remains; the
// caller retires a drained scan with FinishVolatileScan / FinishStableScan,
// or leaves it in flight — a crash mid-scan is a valid state
// (concScan.abandon). No-ops returning false when no scan is active.
func (hp *Heap) StepVolatileScan() bool { return hp.vscan.step(0) }
func (hp *Heap) StepStableScan() bool   { return hp.sscan.step(0) }

// FinishVolatileScan and FinishStableScan retire the area's in-flight
// concurrent scan inline, blocking until from-space is discarded. No-ops
// when no scan is active.
func (hp *Heap) FinishVolatileScan() {
	hp.lockExclusive()
	defer hp.unlockExclusive()
	hp.finishConcurrentLocked()
}
func (hp *Heap) FinishStableScan() { hp.sscan.tryFinish(0) }

// NurseryUsedWords returns the words currently allocated in the nursery
// (0 without one), the unused tails of allocation chunks at the frontier
// handed back first.
func (hp *Heap) NurseryUsedWords() int {
	hp.lockExclusive()
	defer hp.unlockExclusive()
	if hp.vgc == nil {
		return 0
	}
	hp.sealChunks()
	return hp.vgc.NurseryUsedWords()
}

// LSCount returns the number of newly stable objects awaiting evacuation.
func (hp *Heap) LSCount() int {
	hp.lockExclusive()
	defer hp.unlockExclusive()
	return len(hp.ls)
}

// SRemCount returns the size of the stable→volatile remembered set.
func (hp *Heap) SRemCount() int {
	hp.lockExclusive()
	defer hp.unlockExclusive()
	return len(hp.srem)
}

// Mem exposes the one-level store (tests and benchmarks). Its callers hold
// no latch, so they must not overlap the heap's own work: a goroutine that
// stops the heap owns the store (latch.go). FlushResident is the latched
// way to flush.
func (hp *Heap) Mem() *vm.Store { return hp.mem }

// FlushResident writes back each dirty resident page keep selects, in one
// flush pass (vm.Store.FlushIf: at most one log force, then runs), with the
// stop latch held so no exclusive section owns the store meanwhile — a
// concurrent scan's quantum is one, so no page goes out between a scan
// record and the fixes it logs — and no page cleaner is mid-run: the crash
// harness's choice of what a crash finds on disk. It neither drains the
// gray stack nor checks for a device fault, so it leaves the heap as it
// found it, failed or not.
func (hp *Heap) FlushResident(keep func(word.PageID) bool) {
	hp.stop.Lock()
	defer hp.stop.Unlock()
	hp.mem.FlushIf(keep)
}

// recoverMedia rebuilds the entire stable heap from the log alone — the
// total-media-failure case of §2.2.2: the master is gone, but "our
// recovery system writes enough information to the log to recover from a
// total media failure". The log must be untruncated back to its first
// checkpoint (the archive discipline); repeating history from there then
// reconstructs every page the disk lacks, and a page it still holds is
// redone only past its page LSN.
func recoverMedia(cfg Config, disk *storage.Disk, logDev *storage.Log) (_ *Heap, err error) {
	defer detectably("media recovery", &err)
	if logDev.TruncLSN() > 1 {
		// A truncated log cannot rebuild a lost disk: later checkpoints
		// assume flushed pages that no longer exist. The archive
		// discipline keeps the full log (or pairs truncation with disk
		// archives, which this reproduction does not model).
		return nil, errors.New("core: the page store has no formatted master and the log is truncated; media recovery needs the full log from format time")
	}
	// Synthesize the lost master block: find the first retained
	// checkpoint and recover from there — everything after it replays.
	var firstCP word.LSN
	probe := wal.NewManager(logDev)
	probe.Scan(1, true, func(lsn word.LSN, r wal.Record) bool {
		if r.Type() == wal.TCheckpoint {
			firstCP = lsn
			return false
		}
		return true
	})
	if firstCP == word.NilLSN {
		return nil, errors.New("core: the page store has no formatted master and the log retains no checkpoint; media recovery needs an untruncated log")
	}
	disk.SetMaster(storage.Master{Formatted: true, CheckpointLSN: firstCP, PageSize: cfg.PageSize})
	return recoverHeap(cfg, disk, logDev, true)
}
