package wal

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"stableheap/internal/obs"
	"stableheap/internal/storage"
	"stableheap/internal/word"
)

// ErrTruncated reports a read below the log's truncation point: the record
// existed but its segment has been reclaimed. Callers that hold an LSN from
// an external source (a replication resume point, an archive cursor) match
// it with errors.Is to distinguish "gone forever" from "never written".
var ErrTruncated = errors.New("wal: LSN below the truncation point")

// Manager spools records to the log device and decodes them back. It is the
// "log manager" of §2.2: Append writes to the volatile log (the buffer);
// Force makes a prefix stable. Per-type volume counters feed the logging
// overhead experiments (E6); always-on latency histograms over Append and
// Force feed the logging-overhead distributions.
//
// The manager owns the WAL latch: Append/Force and the cursor and
// truncation methods serialize on an internal mutex, so concurrent
// transactions append and force without any coarser heap latch (group
// commit absorbs the force). Scan and ScanBatch are the deliberate
// exception — they stay unsynchronized because redo work inside a scan
// callback may itself force the log (page eviction), which would deadlock
// on a held manager mutex; they are only called from single-threaded
// contexts (recovery, tooling, quiesced experiments).
type Manager struct {
	mu     sync.Mutex // serializes device access (see doc above)
	dev    storage.LogDevice
	count  [maxType]int64
	bytes  [maxType]int64
	append obs.Histogram
	force  obs.Histogram
	bb     *obs.BlackBox
	// retain holds per-owner retention floors: Truncate never drops
	// records at or above any floor. Replication connections register the
	// LSN their standby still needs (see SetRetainFloor).
	retain map[string]word.LSN
}

// NewManager wraps a log device.
func NewManager(dev storage.LogDevice) *Manager {
	return &Manager{dev: dev}
}

// Device exposes the underlying log device (for crash simulation and stats).
func (m *Manager) Device() storage.LogDevice { return m.dev }

// encPool holds scratch buffers for Append's encode step: the framed record
// only lives until the device copies it into its own storage, so the buffer
// is returned immediately and the steady-state commit path encodes without
// allocating.
var encPool = sync.Pool{New: func() any { return &encBuf{} }}

type encBuf struct{ b []byte }

// Append spools a record to the volatile log and returns its LSN.
func (m *Manager) Append(r Record) word.LSN {
	start := time.Now()
	eb := encPool.Get().(*encBuf)
	frame := AppendEncode(eb.b[:0], r)
	lsn := m.appendLocked(frame, r.Type())
	eb.b = frame
	encPool.Put(eb)
	m.append.Since(start)
	return lsn
}

// appendLocked is the mutex-held device section of Append, deferred so a
// fault-injection panic from the device cannot leak the WAL latch.
func (m *Manager) appendLocked(frame []byte, t Type) word.LSN {
	m.mu.Lock()
	defer m.mu.Unlock()
	lsn := m.dev.Append(frame)
	m.count[t]++
	m.bytes[t] += int64(len(frame))
	return lsn
}

// Force synchronously writes the log through lsn to stable storage.
func (m *Manager) Force(lsn word.LSN) {
	start := time.Now()
	func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		m.dev.Force(lsn)
	}()
	d := time.Since(start)
	m.force.Observe(uint64(d))
	m.bb.Span(obs.EvWALForce, d, 0, uint64(lsn), 0)
}

// ForceAll forces the entire volatile tail.
func (m *Manager) ForceAll() {
	start := time.Now()
	var end word.LSN
	func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		m.dev.ForceAll()
		end = m.dev.StableLSN()
	}()
	d := time.Since(start)
	m.force.Observe(uint64(d))
	m.bb.Span(obs.EvWALForce, d, 0, uint64(end), 0)
}

// AppendHist snapshots the Append latency histogram (nanoseconds).
func (m *Manager) AppendHist() obs.HistSnapshot { return m.append.Snapshot() }

// ForceHist snapshots the Force latency histogram (nanoseconds).
func (m *Manager) ForceHist() obs.HistSnapshot { return m.force.Snapshot() }

// SetRecorder wires an optional flight recorder: every force lands in the
// black-box timeline with its LSN. Nil disables.
func (m *Manager) SetRecorder(b *obs.BlackBox) { m.bb = b }

// StableLSN returns the first LSN not guaranteed durable.
func (m *Manager) StableLSN() word.LSN {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dev.StableLSN()
}

// EndLSN returns the LSN the next record will receive.
func (m *Manager) EndLSN() word.LSN {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dev.EndLSN()
}

// IsStable reports whether the record at lsn is durable.
func (m *Manager) IsStable(lsn word.LSN) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return lsn < m.dev.StableLSN()
}

// DeviceStats returns the device traffic counters under the WAL latch, so
// metrics snapshots do not race a concurrent group-commit force.
func (m *Manager) DeviceStats() storage.LogStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dev.Stats()
}

// CloneDevice deep-copies the log device under the WAL latch (base
// backups run while the group-commit flusher may be forcing).
func (m *Manager) CloneDevice() storage.LogDevice {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dev.Clone()
}

// CrashDevice drops the device's volatile tail under the WAL latch, so a
// simulated crash serializes against in-flight shipping scans and forces.
func (m *Manager) CrashDevice() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dev.Crash()
}

// ReadAt decodes the record at lsn. An LSN below the truncation point
// returns an error wrapping ErrTruncated (the record is gone, not
// absent); a frame that exists but fails to decode returns a typed
// storage.CorruptFrameError (match with errors.Is(err,
// storage.ErrCorrupt)); any other failure means no record starts at lsn.
func (m *Manager) ReadAt(lsn word.LSN) (Record, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	frame, ok := m.dev.ReadAt(lsn)
	if !ok {
		if lsn < m.dev.TruncLSN() {
			return nil, fmt.Errorf("wal: record at LSN %d reclaimed (truncation point %d): %w",
				lsn, m.dev.TruncLSN(), ErrTruncated)
		}
		return nil, fmt.Errorf("wal: no record at LSN %d", lsn)
	}
	r, err := Decode(frame)
	if err != nil {
		return nil, &storage.CorruptFrameError{LSN: lsn, Reason: err.Error()}
	}
	return r, nil
}

// MustReadAt is ReadAt for callers holding an LSN that must be present
// (e.g. a prevLSN chain inside the retained log); it panics on failure.
func (m *Manager) MustReadAt(lsn word.LSN) Record {
	r, err := m.ReadAt(lsn)
	if err != nil {
		panic(err)
	}
	return r
}

// Scan decodes records in LSN order starting at from; fn returning false
// stops the scan. If stableOnly is set, the volatile tail is not visited
// (recovery sees only the stable log). Decoding failures panic with a
// typed storage.CorruptFrameError naming the LSN: a retained record that
// no longer decodes is device corruption, and the recovery entry points
// convert the panic into a returned error (the detectable-failure
// contract) rather than admitting a half-read log.
func (m *Manager) Scan(from word.LSN, stableOnly bool, fn func(lsn word.LSN, r Record) bool) {
	storage.Scan(m.dev, from, stableOnly, func(lsn word.LSN, frame []byte) bool {
		r, err := Decode(frame)
		if err != nil {
			panic(&storage.CorruptFrameError{LSN: lsn, Reason: err.Error()})
		}
		return fn(lsn, r)
	})
}

// ScanBatch is Scan with batched delivery: records are decoded in LSN order
// and handed to fn up to batchSize at a time, as parallel lsns/recs slices
// that are reused across calls (fn must not retain the slices themselves;
// the records stay valid, though their byte fields alias retained log
// entries — see Decode). This amortizes per-record scan overhead on the
// recovery redo path.
func (m *Manager) ScanBatch(from word.LSN, stableOnly bool, batchSize int, fn func(lsns []word.LSN, recs []Record) bool) {
	if batchSize <= 0 {
		batchSize = 64
	}
	recs := make([]Record, 0, batchSize)
	m.dev.ScanBatches(from, stableOnly, batchSize, func(lsns []word.LSN, frames [][]byte) bool {
		recs = recs[:0]
		for i, frame := range frames {
			r, err := Decode(frame)
			if err != nil {
				panic(&storage.CorruptFrameError{LSN: lsns[i], Reason: err.Error()})
			}
			recs = append(recs, r)
		}
		return fn(lsns, recs)
	})
}

// Truncate releases log space below keep (segment granularity), clamped so
// no registered retention floor is violated: a replication standby that has
// not acknowledged past a floor keeps its resume window alive no matter how
// far checkpoints advance.
func (m *Manager) Truncate(keep word.LSN) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if f := m.retainFloorLocked(); f != word.NilLSN && f < keep {
		keep = f
	}
	// Round down to the device's own segment boundary before deciding
	// whether there is anything to free: the device only reclaims whole
	// segments, and its segment map is backend-specific (the file-backed
	// log reports its on-disk segmentation, not the in-memory default).
	seg := word.LSN(m.dev.SegmentBytes())
	if seg <= 0 {
		seg = 1
	}
	boundary := (keep-1)/seg*seg + 1
	if boundary <= m.dev.TruncLSN() {
		return // nothing new to free (possibly floor-clamped to zero work)
	}
	m.dev.Truncate(keep)
}

// SetRetainFloor registers (or moves) owner's retention floor: Truncate will
// keep every record at or above lsn until the floor is raised or cleared.
// Floors deliberately survive connection loss — a disconnected standby's
// resume window must not be reclaimed while it is reconnecting.
func (m *Manager) SetRetainFloor(owner string, lsn word.LSN) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.retain == nil {
		m.retain = make(map[string]word.LSN)
	}
	m.retain[owner] = lsn
}

// ClearRetainFloor removes owner's retention floor.
func (m *Manager) ClearRetainFloor(owner string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.retain, owner)
}

// RetainFloor returns the lowest registered retention floor (NilLSN if none).
func (m *Manager) RetainFloor() word.LSN {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.retainFloorLocked()
}

func (m *Manager) retainFloorLocked() word.LSN {
	min := word.NilLSN
	for _, lsn := range m.retain {
		if min == word.NilLSN || lsn < min {
			min = lsn
		}
	}
	return min
}

// CopyStableTail returns the raw frames of the stable log starting exactly
// at the record boundary from, concatenated, up to roughly maxBytes (always
// at least one whole frame when any is available). The second result is the
// LSN of the first record NOT included — the cursor for the next call. The
// frames keep their on-device encoding (length-prefixed, CRC-framed), so a
// replication shipper can put them on the wire verbatim and the standby can
// append them at identical LSNs.
//
// An exhausted window (from == StableLSN) returns an empty slice; a from
// below the truncation point returns an error wrapping ErrTruncated (the
// resume point is unserviceable — the standby needs a fresh base backup).
func (m *Manager) CopyStableTail(from word.LSN, maxBytes int) ([]byte, word.LSN, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if from < m.dev.TruncLSN() {
		return nil, from, fmt.Errorf("wal: cannot ship from LSN %d (truncation point %d): %w",
			from, m.dev.TruncLSN(), ErrTruncated)
	}
	if from > m.dev.StableLSN() {
		return nil, from, fmt.Errorf("wal: ship cursor %d beyond stable LSN %d", from, m.dev.StableLSN())
	}
	if maxBytes <= 0 {
		maxBytes = 64 * 1024
	}
	var out []byte
	next := from
	boundary := true
	var scanErr error
	m.dev.ScanBatches(from, true, 64, func(lsns []word.LSN, frames [][]byte) bool {
		for i, frame := range frames {
			if boundary {
				if lsns[i] != from {
					scanErr = fmt.Errorf("wal: ship cursor %d is not a record boundary (next record at %d)", from, lsns[i])
					return false
				}
				boundary = false
			}
			if len(out) > 0 && len(out)+len(frame) > maxBytes {
				return false
			}
			out = append(out, frame...)
			next = lsns[i] + word.LSN(len(frame))
		}
		return true
	})
	return out, next, scanErr
}

// TypeStats reports how many records of type t were appended and their
// total framed bytes.
func (m *Manager) TypeStats(t Type) (count, bytes int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.count[t], m.bytes[t]
}

// VolumeByClass summarizes appended bytes by origin: transactional records,
// collector records, stability-tracking records, and bookkeeping. This is
// the breakdown of experiment E6.
func (m *Manager) VolumeByClass() (txBytes, gcBytes, trackBytes, bookBytes int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for t := Type(1); t < maxType; t++ {
		b := m.bytes[t]
		switch t {
		case TBegin, TUpdate, TCLR, TAlloc, TCommit, TAbort, TEnd:
			txBytes += b
		case TFlip, TCopy, TScan, TGCEnd:
			gcBytes += b
		case TBase, TComplete, TV2SCopy, TSFix, TVFlip:
			trackBytes += b
		case TPageFetch, TEndWrite, TCheckpoint:
			bookBytes += b
		}
	}
	return
}

// ResetStats zeroes the per-type counters (device stats are separate).
func (m *Manager) ResetStats() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.count = [maxType]int64{}
	m.bytes = [maxType]int64{}
}
