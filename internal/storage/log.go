package storage

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"stableheap/internal/word"
)

// AtomicLSN is an LSN a device writes under its mutex and publishes for
// lock-free reads: StableLSN, EndLSN and wal.Manager.IsStable are one
// atomic load, never a wait behind an append or a force.
type AtomicLSN struct{ v atomic.Uint64 }

func (a *AtomicLSN) Load() word.LSN     { return word.LSN(a.v.Load()) }
func (a *AtomicLSN) Store(lsn word.LSN) { a.v.Store(uint64(lsn)) }

// LogStats counts log device traffic. Forces are the synchronous writes the
// paper is careful to minimize (its collector performs none).
type LogStats struct {
	Appends       int64 // records spooled to the volatile tail
	Forces        int64 // synchronous stable-storage writes
	BytesAppended int64
	BytesStable   int64 // bytes made stable by forces
	Truncations   int64
	BytesDropped  int64 // bytes reclaimed by truncation
}

// Log is the simulated stable-storage log device (§2.2.1). Records are
// appended to a volatile buffer tail and become durable when forced. The
// device is segmented: truncation frees whole segments from the front, as in
// the paper's three-segment log (Fig. 4.2).
//
// An LSN is the 1-based byte offset of the record in the conceptual infinite
// log; LSNs keep growing across truncation, so every record ever written has
// a unique LSN and ordering between any two records is just integer order.
//
// One mutex guards everything (LogDevice's concurrency contract); a force
// here is a single assignment, so nothing is ever in flight.
type Log struct {
	mu      sync.Mutex
	segSize int
	entries []logEntry // retained records, ascending LSN
	nextLSN AtomicLSN  // LSN the next appended record will receive
	// stableLSN: every record with lsn < stableLSN is on stable storage.
	// Records at or beyond it are in the volatile tail and die at Crash.
	stableLSN AtomicLSN
	// truncLSN: records below it have been discarded; reading them fails.
	truncLSN word.LSN
	stats    LogStats
}

type logEntry struct {
	lsn  word.LSN
	data []byte
}

// DefaultSegmentSize is the segment granularity used when none is given.
const DefaultSegmentSize = 64 * 1024

// NewLog creates an empty log with the given segment size in bytes.
func NewLog(segSize int) *Log {
	if segSize <= 0 {
		segSize = DefaultSegmentSize
	}
	l := &Log{segSize: segSize, truncLSN: 1}
	l.nextLSN.Store(1)
	l.stableLSN.Store(1)
	return l
}

// Append spools a record to the volatile tail and returns its LSN.
// The record is NOT durable until a Force at or beyond its end.
func (l *Log) Append(data []byte) word.LSN {
	if len(data) == 0 {
		panic("storage: empty log record")
	}
	stored := make([]byte, len(data))
	copy(stored, data)
	l.mu.Lock()
	defer l.mu.Unlock()
	lsn := l.nextLSN.Load()
	l.entries = append(l.entries, logEntry{lsn: lsn, data: stored})
	l.nextLSN.Store(lsn + word.LSN(len(data)))
	l.stats.Appends++
	l.stats.BytesAppended += int64(len(data))
	return lsn
}

// Force synchronously writes the records that start at or below lsn to
// stable storage; Force(EndLSN()-1) forces everything. Forcing an already-
// stable LSN is a no-op and does not count as a synchronous write.
func (l *Log) Force(lsn word.LSN) {
	l.mu.Lock()
	defer l.mu.Unlock()
	before := l.stableLSN.Load()
	if lsn < before {
		return
	}
	through := l.nextLSN.Load()
	if i := l.search(lsn + 1); i < len(l.entries) {
		through = l.entries[i].lsn
	}
	l.stableLSN.Store(through)
	l.stats.Forces++
	l.stats.BytesStable += int64(through - before)
}

// StableLSN returns the first LSN NOT guaranteed durable: every record whose
// lsn is below it survives a crash.
func (l *Log) StableLSN() word.LSN { return l.stableLSN.Load() }

// EndLSN returns the LSN the next record will receive.
func (l *Log) EndLSN() word.LSN { return l.nextLSN.Load() }

// TruncLSN returns the lowest LSN still readable.
func (l *Log) TruncLSN() word.LSN { l.mu.Lock(); defer l.mu.Unlock(); return l.truncLSN }

// SegmentBytes returns the segment granularity in bytes.
func (l *Log) SegmentBytes() int { return l.segSize }

// search returns the index of the first retained record with LSN >= lsn.
func (l *Log) search(lsn word.LSN) int {
	return sort.Search(len(l.entries), func(i int) bool { return l.entries[i].lsn >= lsn })
}

// Crash discards the volatile tail: every record at or beyond StableLSN.
func (l *Log) Crash() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries = l.entries[:l.search(l.stableLSN.Load())]
	l.nextLSN.Store(l.stableLSN.Load())
}

// CrashTorn models a crash that arrives while a final force of the tail is
// in flight: the stable prefix grows to cut — which may fall in the middle
// of a record, leaving a torn fragment — and everything beyond cut is
// lost. cut must lie in [StableLSN, EndLSN]; records below the old stable
// LSN were already durable (and possibly acknowledged), so a tear can
// never reach them. Recovery discards the fragment with RepairTail.
func (l *Log) CrashTorn(cut word.LSN) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if cut < l.stableLSN.Load() || cut > l.nextLSN.Load() {
		panic(fmt.Sprintf("storage: torn crash at %d outside volatile region [%d, %d]", cut, l.stableLSN.Load(), l.nextLSN.Load()))
	}
	i := 0
	for i < len(l.entries) && l.entries[i].lsn+word.LSN(len(l.entries[i].data)) <= cut {
		i++
	}
	if i < len(l.entries) && l.entries[i].lsn < cut {
		// The record straddling cut survives as a truncated fragment: its
		// first cut-lsn bytes reached the platter.
		e := &l.entries[i]
		e.data = append([]byte(nil), e.data[:cut-e.lsn]...)
		i++
	}
	l.entries = l.entries[:i]
	l.nextLSN.Store(cut)
	l.stableLSN.Store(cut)
}

// RepairTail rewinds the log to from: every record (or fragment) at or
// beyond it is dropped, and the next append receives LSN from. Recovery
// calls it after classifying an undecodable final record as a torn tail —
// the interrupted force was never acknowledged, so the bytes never
// logically existed.
func (l *Log) RepairTail(from word.LSN) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from < l.truncLSN {
		panic(fmt.Sprintf("storage: repair tail at %d below truncation point %d", from, l.truncLSN))
	}
	if from > l.nextLSN.Load() {
		panic(fmt.Sprintf("storage: repair tail at %d beyond end LSN %d", from, l.nextLSN.Load()))
	}
	l.entries = l.entries[:l.search(from)]
	l.nextLSN.Store(from)
	if l.stableLSN.Load() > from {
		l.stableLSN.Store(from)
	}
}

// CorruptEntry applies fn to the retained record beginning at lsn, in
// place, returning false if no record starts there. It is the
// fault-injection hook for at-rest bit rot (internal/faultfs); nothing in
// the production paths calls it.
func (l *Log) CorruptEntry(lsn word.LSN, fn func(data []byte)) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	i := l.search(lsn)
	if i >= len(l.entries) || l.entries[i].lsn != lsn {
		return false
	}
	fn(l.entries[i].data)
	return true
}

// Truncate discards log space below keep, at segment granularity: only whole
// segments entirely below keep are freed, so the readable prefix may retain
// a little more than asked. Truncating beyond the stable LSN is an error.
func (l *Log) Truncate(keep word.LSN) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if keep > l.stableLSN.Load() {
		panic(fmt.Sprintf("storage: truncate(%d) beyond stable LSN %d", keep, l.stableLSN.Load()))
	}
	// Largest segment boundary at or below keep.
	boundary := word.LSN((uint64(keep-1) / uint64(l.segSize)) * uint64(l.segSize))
	boundary++ // LSNs are 1-based
	if boundary <= l.truncLSN {
		return
	}
	var dropped int64
	i := 0
	for i < len(l.entries) && l.entries[i].lsn+word.LSN(len(l.entries[i].data)) <= boundary {
		dropped += int64(len(l.entries[i].data))
		i++
	}
	l.entries = l.entries[i:]
	l.truncLSN = boundary
	l.stats.Truncations++
	l.stats.BytesDropped += dropped
}

// ReadAt returns the record beginning exactly at lsn. ok is false if no
// record starts there or it has been truncated away.
func (l *Log) ReadAt(lsn word.LSN) (data []byte, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	i := l.search(lsn)
	if i >= len(l.entries) || l.entries[i].lsn != lsn {
		return nil, false
	}
	return append([]byte(nil), l.entries[i].data...), true
}

// ScanBatches calls fn for the retained records with lsn >= from, in LSN
// order, visiting only durable records if stableOnly is set: fn receives up
// to batchSize records at a time, as parallel lsns/frames slices. Both slice headers are
// reused across calls — fn must not retain them past its return; the frame
// bytes are the retained log entries themselves, so they satisfy
// LogDevice's ownership rule (immutable until the scan returns) for free.
// fn returning false stops the scan. The scan works on the records retained
// when it starts and calls fn with the device unlocked: fn may re-enter the
// device, and records appended meanwhile are not visited.
func (l *Log) ScanBatches(from word.LSN, stableOnly bool, batchSize int, fn func(lsns []word.LSN, frames [][]byte) bool) {
	if batchSize <= 0 {
		batchSize = 64
	}
	l.mu.Lock()
	entries := l.entries[l.search(from):]
	stable := l.stableLSN.Load()
	l.mu.Unlock()
	lsns := make([]word.LSN, 0, batchSize)
	frames := make([][]byte, 0, batchSize)
	for _, e := range entries {
		if stableOnly && e.lsn >= stable {
			break
		}
		lsns = append(lsns, e.lsn)
		frames = append(frames, e.data)
		if len(lsns) == batchSize {
			if !fn(lsns, frames) {
				return
			}
			lsns = lsns[:0]
			frames = frames[:0]
		}
	}
	if len(lsns) > 0 {
		fn(lsns, frames)
	}
}

// RetainedBytes returns the byte count of records still held by the device
// (stable and volatile): the quantity truncation exists to bound.
func (l *Log) RetainedBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var n int64
	for _, e := range l.entries {
		n += int64(len(e.data))
	}
	return n
}

// Stats returns accumulated traffic counters.
func (l *Log) Stats() LogStats { l.mu.Lock(); defer l.mu.Unlock(); return l.stats }

// Snapshot deep-copies the log device (both stable and volatile parts).
func (l *Log) Snapshot() *Log {
	l.mu.Lock()
	defer l.mu.Unlock()
	nl := &Log{
		segSize:  l.segSize,
		entries:  make([]logEntry, len(l.entries)),
		truncLSN: l.truncLSN,
		stats:    l.stats,
	}
	nl.nextLSN.Store(l.nextLSN.Load())
	nl.stableLSN.Store(l.stableLSN.Load())
	for i, e := range l.entries {
		nl.entries[i] = logEntry{lsn: e.lsn, data: append([]byte(nil), e.data...)}
	}
	return nl
}

// Clone returns the Snapshot copy through the LogDevice interface.
func (l *Log) Clone() LogDevice { return l.Snapshot() }
