package storage

import "stableheap/internal/word"

// LogDevice is the stable-log contract: the calls the wal layer makes on
// every record, which is what a test fake or a timing model substitutes
// (faultfs.SlowLog delays Force and StableLSN). *Log is the one log; Base
// reaches it through any substitute for everything else — Crash,
// CrashTorn, Truncate, RepairTail, TornTail, TruncLSN, SegmentBytes,
// RetainedBytes, Stats, Clone. A device reports corruption and
// unrecoverable I/O by panicking with one of the typed errors in errors.go.
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
	// ReadAt returns the record beginning exactly at lsn.
	ReadAt(lsn word.LSN) (data []byte, ok bool)
	// ScanBatches calls fn for the retained records with lsn >= from in
	// LSN order (only the durable ones if stableOnly is set), up to
	// batchSize per call as parallel lsns/frames slices (headers reused,
	// bytes not — see the ownership rule above). fn returning false stops
	// the scan.
	ScanBatches(from word.LSN, stableOnly bool, batchSize int, fn func(lsns []word.LSN, frames [][]byte) bool)
	// Base returns the Log under every substitute. One that embeds a
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

var _ LogDevice = (*Log)(nil)
