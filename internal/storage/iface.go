package storage

import "stableheap/internal/word"

// PageStore is the page-device contract the rest of the system is written
// against. *Disk is the plain simulated device; fault-injection wrappers
// (internal/faultfs) implement the same contract and add torn writes, bit
// rot and transient I/O errors underneath it, so every layer above —
// the one-level store, recovery — runs unmodified over either.
// Implementations report unrecoverable device conditions by
// panicking with one of the typed errors in errors.go; the plain device
// never does.
//
// Ownership: ReadPage returns a buffer of PageSize bytes that the caller
// owns and may keep and mutate — the store never writes to it again and
// hands it to nobody else (vm adopts it as the resident page, so a miss
// costs one copy). WritePage keeps nothing of the caller's slice, which
// the caller may mutate as soon as it returns (vm goes on writing the
// resident page in place). storagetest enforces both rules on every
// backend.
type PageStore interface {
	// PageSize returns the page size the store was created with.
	PageSize() int
	// ReadPage returns the page's durable contents, in a buffer the caller
	// owns, and its page LSN; ok is false if the page has never been
	// written.
	ReadPage(id word.PageID) (data []byte, lsn word.LSN, ok bool)
	// WritePage durably replaces the page's contents and page LSN, keeping
	// nothing of data.
	WritePage(id word.PageID, data []byte, lsn word.LSN)
	// PageLSN returns the durable page LSN for id (NilLSN if never written).
	PageLSN(id word.PageID) word.LSN
	// Pages returns the ids of all pages ever written, in ascending order.
	Pages() []word.PageID
	// Master returns the current master block.
	Master() Master
	// SetMaster atomically replaces the master block.
	SetMaster(m Master)
	// Stats returns accumulated traffic counters.
	Stats() DiskStats
	// Clone returns an independent deep copy of the durable state, used to
	// fork "what if we crashed here" worlds (twin recovery).
	// Fault-injecting implementations return a plain, fault-free copy.
	Clone() PageStore
}

// LogDevice is the stable-log-device contract mirroring *Log, with the
// same panic-on-corruption discipline as PageStore.
//
// Concurrency: every method is safe for concurrent use, and the device
// holds no lock across a Force's I/O that Append, ReadAt, ScanBatches,
// StableLSN, EndLSN, TruncLSN, RetainedBytes or Stats needs. Force(lsn)
// takes the spooled records that start at or below lsn under the device's
// mutex, writes and syncs them with the mutex released — the batch in
// flight stays readable the whole time — and publishes the new StableLSN
// when the sync returns. The caller's lsn bounds the batch, not the
// instant the device takes it: records above lsn, and those appended
// while a Force is in flight, stay volatile. At most one Force is in
// flight: a second one, and the structural operations (Truncate,
// RepairTail, Crash, Clone), wait for it. wal.Manager.Force builds the
// shared commit force on exactly this.
//
// Ownership of appended bytes: Append copies the record before it returns
// and never retains the caller's slice, which the caller may reuse at once
// (wal.Manager encodes every record into a pooled buffer). Where the copy
// lives is the device's business — filestore carves it from a 64 KiB spool
// arena, so a record costs no allocation of its own — but it is subject to
// the rule below like any delivered frame.
//
// Ownership of scanned bytes: the bytes Scan and ScanBatches deliver are
// immutable until the scan returns, and the device lets go of them there —
// it never overwrites or recycles a delivered buffer, neither between
// callbacks nor afterwards. Consumers decode them zero-copy (wal.Decode)
// and may keep the aliasing payloads after the callback that delivered
// them returns. Only the two slice headers ScanBatches passes
// (lsns, frames) may be reused from one callback to the next. storagetest
// enforces both rules on every backend.
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
	// TruncLSN returns the lowest LSN still readable.
	TruncLSN() word.LSN
	// Crash discards the volatile tail (fault-injecting implementations
	// may instead persist a torn byte prefix of it).
	Crash()
	// SegmentBytes returns the device's segment granularity in bytes: the
	// unit Truncate frees at. wal.Manager.Truncate rounds to this, so it
	// must reflect the backend's real segment map, not an assumed default.
	SegmentBytes() int
	// Truncate discards log space below keep, at segment granularity.
	Truncate(keep word.LSN)
	// RepairTail rewinds the log to from: every record at or beyond it is
	// dropped and appends resume there. Recovery uses it to discard the
	// torn fragment a crashed mid-record force left behind.
	RepairTail(from word.LSN)
	// ReadAt returns the record beginning exactly at lsn.
	ReadAt(lsn word.LSN) (data []byte, ok bool)
	// ScanBatches calls fn for the retained records with lsn >= from in
	// LSN order (only the durable ones if stableOnly is set), up to
	// batchSize per call as parallel lsns/frames slices (headers reused,
	// bytes not — see the ownership rule above). fn returning false stops
	// the scan.
	ScanBatches(from word.LSN, stableOnly bool, batchSize int, fn func(lsns []word.LSN, frames [][]byte) bool)
	// RetainedBytes returns the byte count of records still held.
	RetainedBytes() int64
	// Stats returns accumulated traffic counters.
	Stats() LogStats
	// Clone returns an independent deep copy (stable and volatile parts).
	// Fault-injecting implementations return a plain, fault-free copy.
	Clone() LogDevice
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
