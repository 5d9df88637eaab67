package core

import (
	"stableheap/internal/storage"
	"stableheap/internal/word"
)

// This file is the primary-side surface log-shipping replication needs
// from a live heap: a consistent base backup, verbatim copies of the
// stable log tail, and per-standby retention floors that stop the
// checkpointer's log truncation from reclaiming unshipped frames. The
// shipping paths are latch-free — the log manager serializes device access
// internally, so standbys never stall the transaction path; only the base
// backup stops the heap.

// BaseBackup snapshots the heap's devices for seeding a standby: a copy
// of the disk and a copy of the log with the volatile tail dropped —
// exactly the state a crash right now would leave behind, which is the
// invariant a standby maintains (DESIGN.md §9). The standby resumes
// shipping from the returned log's EndLSN.
func (hp *Heap) BaseBackup() (storage.PageStore, storage.LogDevice) {
	hp.lockExclusive()
	defer hp.unlockExclusive()
	// Publish any pending checkpoint first: with pendingLSN cleared, a
	// concurrent committer's Promote (commits finish outside the latch) is
	// a no-op and cannot rewrite the master block mid-clone.
	hp.ckpt.ForcePromote()
	disk := hp.disk.Clone()
	logCopy := hp.logDev.Clone()
	logCopy.Crash() // stable prefix only: unforced records never ship
	return disk, logCopy
}

// ShipLog copies whole stable log frames starting exactly at from,
// bounded below by maxBytes (at least one frame ships if any is stable).
// It returns the raw bytes, the next cursor, and wal.ErrTruncated
// (wrapped) when from has already been reclaimed — the signal that a
// standby needs a fresh base backup.
func (hp *Heap) ShipLog(from word.LSN, maxBytes int) ([]byte, word.LSN, error) {
	return hp.log.CopyStableTail(from, maxBytes)
}

// LogStableLSN returns the end of the stable log prefix — the shipping
// horizon a standby can catch up to right now.
func (hp *Heap) LogStableLSN() word.LSN {
	return hp.log.StableLSN()
}

// SetLogRetainFloor pins the log at lsn on behalf of owner: checkpoints
// keep running, but TruncateLog will not reclaim frames the slowest
// standby still needs. Re-setting the same owner moves its floor.
func (hp *Heap) SetLogRetainFloor(owner string, lsn word.LSN) {
	hp.log.SetRetainFloor(owner, lsn)
}

// ClearLogRetainFloor drops owner's pin (a decommissioned standby).
func (hp *Heap) ClearLogRetainFloor(owner string) {
	hp.log.ClearRetainFloor(owner)
}
