package recovery

import (
	"fmt"

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
// — to a primary that crashed at L. In particular, a shipped end-write
// record is replayed too: when the primary certifies a page flush, the
// standby flushes its own replayed copy of that page, so a later recovery's
// analysis (which prunes the dirty page table at end-write records) finds
// the page image it expects on the standby's disk. Promotion is therefore
// just core.Recover over the standby's devices — the bounded-recovery
// argument of Ch. 4 carries over verbatim (see DESIGN.md §9).
type Applier struct {
	mem   *vm.Store
	red   *redoer // red.dpt is the standby's dirty page table
	stats ApplierStats
}

// ApplierStats reports bootstrap and continuous-apply activity.
type ApplierStats struct {
	// Bootstrap is the base-backup catch-up pass (analysis + redo over the
	// retained stable log) with its redo record counts.
	Bootstrap        Stats
	BootstrapScanned int
	BootstrapApplied int
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
	a, res, err := replay(mem, log, opts)
	if err != nil {
		return nil, fmt.Errorf("recovery: applier bootstrap failed: %w", err)
	}
	// The post-analysis dirty page table seeds continuous apply, and Apply
	// maintains it with the same dirtyPages.note analysis uses: after the
	// shipped prefix through L it is the table a crash at L would
	// reconstruct (TestApplierTableEqualsAnalysis).
	ap = &Applier{mem: mem, red: &redoer{mem: mem, dpt: a.dpt}}
	ap.stats.Bootstrap = res.Stats
	ap.stats.BootstrapScanned = res.RedoScanned
	ap.stats.BootstrapApplied = res.RedoApplied
	return ap, nil
}

// Apply folds one shipped record into the replica. The caller must append
// the record's frame to the standby log (at the same LSN) and force it
// BEFORE calling Apply, in shipped order — Apply assumes the log already
// holds everything up to and including lsn.
func (ap *Applier) Apply(lsn word.LSN, rec wal.Record) {
	switch r := rec.(type) {
	case wal.EndWriteRec:
		// Replay the primary's page-flush certificate before note prunes
		// the table: the standby writes its own replayed image of the page
		// to its disk, so table and disk track the primary's. Pages the
		// applier never dirtied carry no logged content and are skipped —
		// recovery reconstructs nothing from them.
		if _, dirty := ap.red.dpt.recLSN[r.Page]; dirty {
			ap.mem.FlushPage(r.Page)
			ap.stats.Flushes++
		} else {
			ap.stats.EndWriteSkips++
		}
	case wal.CheckpointRec:
		// The checkpoint is in the standby's stable log (the caller forced
		// it), so it can become the master: promotion after this point
		// starts analysis here, exactly as on the primary — and so does
		// the table, which otherwise kept every page the primary discarded
		// unflushed (a freed from-space logs no end-write).
		ap.mem.Disk().SetMaster(storage.Master{
			Formatted: true, CheckpointLSN: lsn, PageSize: ap.mem.PageSize(),
		})
		*ap.red.dpt = *newDirtyPages(ap.red.dpt.pageSize, r.Dirty, false)
		ap.stats.Checkpoints++
	}
	ap.red.dpt.note(lsn, rec)
	if ap.red.apply(lsn, rec) {
		ap.stats.Applied++
	}
}

// Stats returns a snapshot of applier activity.
func (ap *Applier) Stats() ApplierStats {
	s := ap.stats
	s.DirtyPages = len(ap.red.dpt.recLSN)
	return s
}
