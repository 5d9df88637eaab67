package storage

import "stableheap/internal/word"

// PageStore is the page-device contract the rest of the system is written
// against: the five calls the vm pool and the checkpointer make. *Disk is
// the one page store; the fault-injection wrapper (internal/faultfs)
// implements the same contract and adds torn writes, bit rot and transient
// I/O errors underneath it, so every layer above — the one-level store,
// recovery — runs unmodified over either. Whatever else a caller needs
// (Pages, Stats, Clone, PageSize) it asks of the Disk itself: DiskOf.
// Implementations report unrecoverable device conditions by panicking with
// one of the typed errors in errors.go.
//
// Ownership: ReadPage returns a buffer of PageSize bytes that the caller
// owns and may keep and mutate — the store never writes to it again and
// hands it to nobody else (vm adopts it as the resident page, so a miss
// costs one copy). WritePage keeps nothing of the caller's slice, which
// the caller may mutate as soon as it returns (vm goes on writing the
// resident page in place). storagetest enforces both rules on every
// backing.
type PageStore interface {
	// ReadPage returns the page's durable contents, in a buffer the caller
	// owns, and its page LSN; ok is false if the page has never been
	// written.
	ReadPage(id word.PageID) (data []byte, lsn word.LSN, ok bool)
	// WritePage durably replaces the page's contents and page LSN, keeping
	// nothing of data.
	WritePage(id word.PageID, data []byte, lsn word.LSN)
	// PageLSN returns the durable page LSN for id (NilLSN if never written).
	PageLSN(id word.PageID) word.LSN
	// Master returns the current master block.
	Master() Master
	// SetMaster atomically replaces the master block.
	SetMaster(m Master)
}

// LogDevice is the stable-log contract: the calls a wrapper intercepts
// (faultfs injects I/O errors into Append, Force and ReadAt and tears the
// tail at Crash; faultfs.SlowLog delays Force and StableLSN) and the ones
// the wal layer makes on every record. *Log is the one log; Base reaches
// it through any wrapper for everything else — Truncate, RepairTail,
// TruncLSN, SegmentBytes, RetainedBytes, Stats, Clone. It has the same
// panic-on-corruption discipline as PageStore.
//
// Concurrency: every method is safe for concurrent use, and the device
// holds no lock across a Force's I/O that Append, ReadAt, ScanBatches,
// StableLSN or EndLSN needs. Force(lsn) takes the spooled records that
// start at or below lsn under the device's mutex, writes and syncs them
// with the mutex released — the batch in flight stays readable the whole
// time — and publishes the new StableLSN when the sync returns. The
// caller's lsn bounds the batch, not the instant the device takes it:
// records above lsn, and those appended while a Force is in flight, stay
// volatile. At most one Force is in flight: a second one, and the
// structural operations (Truncate, RepairTail, Crash, Clone), wait for
// it. wal.Manager.Force builds the shared commit force on exactly this.
//
// Ownership of appended bytes: Append copies the record before it returns
// and never retains the caller's slice, which the caller may reuse at once
// (wal.Manager encodes every record into a pooled buffer). The Log carves
// the copy from a 64 KiB spool arena, so a record costs no allocation of
// its own, and the copy is subject to the rule below like any delivered
// frame.
//
// Ownership of scanned bytes: the bytes Scan and ScanBatches deliver are
// immutable until the scan returns, and the device lets go of them there —
// it never overwrites or recycles a delivered buffer, neither between
// callbacks nor afterwards. Consumers decode them zero-copy (wal.Decode)
// and may keep the aliasing payloads after the callback that delivered
// them returns. Only the two slice headers ScanBatches passes
// (lsns, frames) may be reused from one callback to the next. storagetest
// enforces both rules on every backing.
type LogDevice interface {
	// Append spools a record to the volatile tail and returns its LSN.
	Append(data []byte) word.LSN
	// Force synchronously writes the spooled records that start at or below
	// lsn (all of them for EndLSN()-1) to stable storage if lsn is not yet
	// stable (a no-op otherwise, and then not counted as a force).
	Force(lsn word.LSN)
	// StableLSN returns the first LSN not guaranteed durable.
	StableLSN() word.LSN
	// EndLSN returns the LSN the next record will receive.
	EndLSN() word.LSN
	// Crash discards the volatile tail (a fault-injecting wrapper may
	// instead persist a torn byte prefix of it).
	Crash()
	// ReadAt returns the record beginning exactly at lsn.
	ReadAt(lsn word.LSN) (data []byte, ok bool)
	// ScanBatches calls fn for the retained records with lsn >= from in
	// LSN order (only the durable ones if stableOnly is set), up to
	// batchSize per call as parallel lsns/frames slices (headers reused,
	// bytes not — see the ownership rule above). fn returning false stops
	// the scan.
	ScanBatches(from word.LSN, stableOnly bool, batchSize int, fn func(lsns []word.LSN, frames [][]byte) bool)
	// Base returns the Log under every wrapper. A wrapper that embeds a
	// LogDevice inherits it.
	Base() *Log
}

// ForceAll forces the device's entire volatile tail.
func ForceAll(dev LogDevice) { dev.Force(dev.EndLSN() - 1) }

// Scan is ScanBatches with a one-record callback: fn sees each retained
// record with lsn >= from in LSN order and stops the scan by returning
// false.
func Scan(dev LogDevice, from word.LSN, stableOnly bool, fn func(lsn word.LSN, data []byte) bool) {
	dev.ScanBatches(from, stableOnly, 0, func(lsns []word.LSN, frames [][]byte) bool {
		for i, frame := range frames {
			if !fn(lsns[i], frame) {
				return false
			}
		}
		return true
	})
}

var (
	_ PageStore = (*Disk)(nil)
	_ LogDevice = (*Log)(nil)
)
