package recovery

import (
	"fmt"
	"time"

	"stableheap/internal/storage"
	"stableheap/internal/vm"
	"stableheap/internal/wal"
	"stableheap/internal/word"
)

// Applier is the standby side of log-shipping replication: continuous redo
// without recovery's terminal phases. It bootstraps from a base backup
// exactly like Recover's analysis+redo (so the store is current through the
// retained stable log) but performs NO undo and appends nothing to the log —
// losers stay "in flight", because the primary may still commit them; the
// log on a standby is append-only replica state.
//
// The invariant Apply maintains is what makes promotion trivial: after
// applying the shipped prefix through LSN L, the standby's (disk, stable
// log) pair is byte-equivalent — up to volatile-area noise recovery ignores
// — to a primary that crashed at L. In particular, shipped end-write
// records are mirrored: when the primary certifies a page flush, the
// standby flushes its own replayed copy of that page, so a later recovery's
// analysis (which prunes the dirty page table at end-write records) finds
// the page image it expects on the standby's disk. Promotion is therefore
// just core.Recover over the standby's devices — the bounded-recovery
// argument of Ch. 4 carries over verbatim (see DESIGN.md §9).
type Applier struct {
	mem   *vm.Store
	log   *wal.Manager
	red   *redoer
	cpLSN word.LSN // latest fully-shipped checkpoint (master candidate)
	stats ApplierStats
}

// ApplierStats reports bootstrap and continuous-apply activity.
type ApplierStats struct {
	// Bootstrap is the base-backup catch-up pass (analysis + redo over the
	// retained stable log).
	BootstrapAnalysis time.Duration
	BootstrapRedo     time.Duration
	BootstrapScanned  int
	BootstrapApplied  int
	RedoWorkers       int
	// Continuous apply.
	Applied       int // records that modified a page
	Flushes       int // mirrored end-write page flushes
	Checkpoints   int // shipped checkpoints promoted into the master block
	DirtyPages    int // current dirty-page-table size
	EndWriteSkips int // end-writes for pages outside the dirty table
}

// StartApplier bootstraps continuous redo over a base backup: mem must be a
// fresh store (no resident pages) over the backup disk, and log must wrap
// the backup's stable-only log device. Fetch/flush logging is disabled on
// mem for the applier's lifetime — a standby never generates log records of
// its own.
func StartApplier(mem *vm.Store, log *wal.Manager, opts Options) (ap *Applier, err error) {
	// Scan and redo panic with typed device errors on corrupt frames or
	// surfaced I/O faults; convert them into the detectable-failure error
	// contract instead of crashing the standby process.
	defer func() {
		if v := recover(); v != nil {
			if e, ok := storage.AsDeviceError(v); ok {
				ap, err = nil, fmt.Errorf("recovery: applier bootstrap failed: %w", e)
				return
			}
			panic(v)
		}
	}()
	mem.SetLogFetches(false)

	master := mem.Disk().Master()
	if !master.Formatted {
		return nil, fmt.Errorf("recovery: applier base backup is not a formatted stable heap")
	}
	cpLSN := master.CheckpointLSN
	if cpLSN == word.NilLSN {
		return nil, fmt.Errorf("recovery: applier base backup has no checkpoint")
	}
	rec, err := log.ReadAt(cpLSN)
	if err != nil {
		return nil, fmt.Errorf("recovery: applier cannot read checkpoint at %d: %v", cpLSN, err)
	}
	cp, ok := rec.(wal.CheckpointRec)
	if !ok {
		return nil, fmt.Errorf("recovery: record at %d is %v, not a checkpoint", cpLSN, rec.Type())
	}

	ap = &Applier{mem: mem, log: log, cpLSN: cpLSN}

	phase := time.Now()
	a := newAnalysis(mem, cp, cpLSN)
	a.scan(log)
	ap.stats.BootstrapAnalysis = time.Since(phase)

	phase = time.Now()
	ap.stats.RedoWorkers = 1
	if redoStart := a.redoStart(); redoStart != word.NilLSN {
		// Reuse the recovery engines: parallel partitioned replay when the
		// store is fresh, sequential otherwise. A scratch Result collects
		// the counters.
		var res Result
		if workers := opts.workers(); workers > 1 && len(mem.ResidentPages()) == 0 {
			runParallelRedo(mem, log, a.dpt, redoStart, workers, &res)
			ap.stats.RedoWorkers = res.Stats.RedoWorkers
		} else {
			r := &redoer{mem: mem, dpt: a.dpt}
			log.ScanBatch(redoStart, true, redoBatchSize, func(lsns []word.LSN, recs []wal.Record) bool {
				for i, rec := range recs {
					res.RedoScanned++
					if r.apply(lsns[i], rec) {
						res.RedoApplied++
					}
				}
				return true
			})
		}
		ap.stats.BootstrapScanned = res.RedoScanned
		ap.stats.BootstrapApplied = res.RedoApplied
	}
	ap.stats.BootstrapRedo = time.Since(phase)

	// The post-analysis dirty page table seeds continuous apply: it is
	// exactly the table a crash-now recovery would reconstruct.
	ap.red = &redoer{mem: mem, dpt: a.dpt}
	return ap, nil
}

// Apply folds one shipped record into the replica. The caller must append
// the record's frame to the standby log (at the same LSN) and force it
// BEFORE calling Apply, in shipped order — Apply assumes the log already
// holds everything up to and including lsn.
func (ap *Applier) Apply(lsn word.LSN, rec wal.Record) {
	switch r := rec.(type) {
	case wal.EndWriteRec:
		ap.mirrorFlush(r)
	case wal.CheckpointRec:
		// The checkpoint is in the standby's stable log (the caller forced
		// it), so it can become the master: promotion after this point
		// starts analysis here, exactly as on the primary.
		ap.cpLSN = lsn
		ap.mem.Disk().SetMaster(storage.Master{
			Formatted: true, CheckpointLSN: lsn, PageSize: ap.mem.PageSize(),
		})
		ap.stats.Checkpoints++
	default:
		ap.markDirty(lsn, rec)
		if ap.red.apply(lsn, rec) {
			ap.stats.Applied++
		}
	}
}

// markDirty grows the dirty page table for an incoming record, mirroring
// the analysis pass's dirty-marking rules: a page absent from the table
// gets this record's LSN as its recLSN (first post-flush dirtier).
func (ap *Applier) markDirty(lsn word.LSN, rec wal.Record) {
	switch r := rec.(type) {
	case wal.UpdateRec:
		ap.dirtyRange(r.Addr, len(r.Redo), lsn)
	case wal.CLRRec:
		ap.dirtyRange(r.Addr, len(r.Redo), lsn)
	case wal.LogicalRec:
		ap.dirtyRange(r.Addr, word.WordSize, lsn)
	case wal.AllocRec:
		ap.dirtyRange(r.Addr, word.WordsToBytes(r.SizeWords), lsn)
	case wal.CopyRec:
		ap.dirtyRange(r.To, word.WordsToBytes(r.SizeWords), lsn)
		ap.dirtyRange(r.From, word.WordSize, lsn)
	case wal.ScanRec:
		if len(r.Fixes) > 0 {
			ap.dirtyRange(r.Fixes[0].Addr, word.WordSize, lsn)
		}
	case wal.SFixRec:
		if len(r.Fixes) > 0 {
			ap.dirtyRange(r.Fixes[0].Addr, word.WordSize, lsn)
		}
	case wal.BaseRec:
		ap.dirtyRange(r.Addr, len(r.Object), lsn)
	case wal.V2SCopyRec:
		ap.dirtyRange(r.To, len(r.Object), lsn)
	}
}

// dirtyRange marks every page overlapped by [addr, addr+n) dirty at lsn if
// not already tracked.
func (ap *Applier) dirtyRange(addr word.Addr, n int, lsn word.LSN) {
	ps := ap.mem.PageSize()
	for pg := addr.Page(ps); pg.Base(ps) < addr+word.Addr(n); pg++ {
		if _, ok := ap.red.dpt[pg]; !ok {
			ap.red.dpt[pg] = lsn
		}
	}
}

// mirrorFlush replays a primary page-flush certificate: the standby writes
// its own replayed image of the page to its disk and prunes the dirty page
// table, so the table (and the disk) track the primary's exactly. Pages the
// applier never dirtied carry no logged content and are skipped — recovery
// reconstructs nothing from them.
func (ap *Applier) mirrorFlush(r wal.EndWriteRec) {
	if _, ok := ap.red.dpt[r.Page]; !ok {
		ap.stats.EndWriteSkips++
		return
	}
	ap.mem.FlushPage(r.Page)
	delete(ap.red.dpt, r.Page)
	ap.stats.Flushes++
}

// Stats returns a snapshot of applier activity.
func (ap *Applier) Stats() ApplierStats {
	s := ap.stats
	s.DirtyPages = len(ap.red.dpt)
	return s
}
