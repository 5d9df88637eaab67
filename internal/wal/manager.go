package wal

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"stableheap/internal/obs"
	"stableheap/internal/storage"
	"stableheap/internal/word"
)

// ErrTruncated reports a read below the log's truncation point: the record
// existed but its segment has been reclaimed. Callers match it with
// errors.Is to distinguish "gone forever" from "never written".
var ErrTruncated = errors.New("wal: LSN below the truncation point")

// Manager spools records to the log device and decodes them back. It is the
// "log manager" of §2.2: Append writes to the volatile log (the buffer);
// Force makes a prefix stable. Per-type volume counters feed the logging
// overhead experiments (E6); always-on latency histograms over Append (one
// append in appendSample) and Force feed the logging-overhead
// distributions.
//
// Two locks, neither held across device I/O: mu, the append mutex, orders
// Append's device call with the per-type counters; fmu is the force gate
// (see Force), held to pick a leader and to release followers. ReadAt,
// StableLSN, EndLSN, IsStable and the scans go straight to the log
// (storage.Log's concurrency contract), so a transaction appends and reads its
// undo chain while another's force is on the platter.
type Manager struct {
	mu    sync.Mutex
	dev   *storage.Log
	count [maxType]int64
	bytes [maxType]int64
	seq   atomic.Uint32 // appends, to pick the sampled ones
	bb    *obs.BlackBox
	Met   Metrics

	// The one force path (Force): at most one device force is in flight;
	// parked holds the LSNs of the callers waiting in the gate, from their
	// arrival until the force that covers them ends or they lead one; next
	// is the LSN the following force goes through while its leader is yet
	// to wake. A commit leader in its join wait (ForceCommit) sets joinWant
	// to the callers it waits for; the arrival that brings the gate there
	// sends on joined.
	fmu      sync.Mutex
	fdone    *sync.Cond
	forcing  bool
	next     word.LSN
	parked   []word.LSN
	joinWant int
	joined   chan struct{}
	devForce obs.Smoothed // ns one device force takes
}

// Metrics are the log manager's latency histograms and its join counter.
type Metrics struct {
	Append       obs.Histogram `obs:"wal_append_ns"`           // a 1-in-appendSample sample
	Force        obs.Histogram `obs:"wal_force_ns"`            // the forces led, queueing included
	MutexWait    obs.Histogram `obs:"wal_mutex_wait_ns"`       // an Append that found mu taken waited for it
	ForceWait    obs.Histogram `obs:"wal_force_wait_ns"`       // a follower spent parked
	Batch        obs.Histogram `obs:"wal_force_batch"`         // callers released per device force, its leader included
	JoinWait     obs.Histogram `obs:"wal_commit_join_wait_ns"` // a commit leader waited for its siblings
	JoinTimeouts obs.Counter   `obs:"wal_commit_join_timeouts_total"`
}

// NewManager wraps a log.
func NewManager(dev *storage.Log) *Manager {
	m := &Manager{dev: dev, joined: make(chan struct{}, 1)}
	m.fdone = sync.NewCond(&m.fmu)
	return m
}

// Device exposes the underlying log (for crash simulation and stats).
func (m *Manager) Device() *storage.Log { return m.dev }

// encPool holds scratch buffers for Append's encode step: the framed record
// only lives until the device copies it into its own storage, so the buffer
// is returned immediately and the steady-state commit path encodes without
// allocating.
var encPool = sync.Pool{New: func() any { return &encBuf{} }}

type encBuf struct{ b []byte }

// appendSample is the share of appends wal_append_ns times: two clock reads
// cost about as much as encoding a small record, and a collection appends a
// record per object moved, so the histogram samples instead of taxing every
// append. The distribution keeps its shape; its count is an
// appendSample-th of the appends (wal_appends_total counts them all).
const appendSample = 16

// Append spools a record to the volatile log and returns its LSN.
func (m *Manager) Append(r Record) word.LSN {
	var start time.Time
	if m.seq.Add(1)%appendSample == 0 {
		start = time.Now()
	}
	eb := encPool.Get().(*encBuf)
	frame := AppendEncode(eb.b[:0], r)
	lsn := m.appendLocked(frame, r.Type())
	eb.b = frame
	encPool.Put(eb)
	if !start.IsZero() {
		m.Met.Append.Since(start)
	}
	return lsn
}

// appendLocked is the mutex-held device section of Append, deferred so a
// fault-injection panic from the device cannot leak the append mutex.
func (m *Manager) appendLocked(frame []byte, t Type) word.LSN {
	if !m.mu.TryLock() {
		start := time.Now()
		m.mu.Lock()
		m.Met.MutexWait.Since(start)
	}
	defer m.mu.Unlock()
	lsn := m.dev.Append(frame)
	m.count[t]++
	m.bytes[t] += int64(len(frame))
	return lsn
}

// Force returns once the record at lsn is on stable storage. It is the
// only force path in the system — commit, prepare, the 2PC decision, the
// WAL constraint at page write-back and checkpoint promotion all come
// here — and it shares the device's synchronous write among them
// (§2.2.1, footnote 1):
//
//   - lsn already stable: one atomic load, no lock;
//   - a force in flight: park until it ends. If it covered lsn, done —
//     the caller was a follower and paid no I/O;
//   - otherwise become the leader: force the device with no mutex held,
//     then release everyone that force covered.
//
// The callers close a batch, not the instant the device takes its tail
// (DESIGN.md §11): a leader that finds the gate free forces through the
// log's end as it stands then; a force that ends with callers still
// volatile closes the next batch there and then (next), and the first of
// them to wake leads it. So what overlapping callers cost depends on who
// was waiting, not on how long an fdatasync or a wake-up took. No helper
// goroutine: a lone caller leads at once. Alone, this rule makes two
// committers alternate — one force per commit — and sharing start at
// three; ForceCommit's join step is what lets two share.
func (m *Manager) Force(lsn word.LSN) { m.forceJoin(lsn, 0) }

// ForceCommit is Force for a commit record, with a join step: a leader
// about to close its batch first sleeps until want callers are inside the
// gate, itself included, or one smoothed device force has passed, and then
// closes the batch at the end of the log, so every commit record appended
// meanwhile rides its force. want is how many update transactions are
// usually open, span the smoothed time from Begin to the commit record.
// The leader joins only when want > 1 and span is under half the smoothed
// device force: where transactions are short next to the force, a sibling
// that is open now reaches its commit within the wait, so waiting is a
// decision the traffic makes, not a race with the disk. Otherwise it is
// Force. The price: a leader whose sibling does not come waits one force.
func (m *Manager) ForceCommit(lsn word.LSN, want int, span time.Duration) {
	if 2*int64(span) >= m.devForce.Load() {
		want = 0
	}
	m.forceJoin(lsn, want)
}

// forceJoin is Force, with ForceCommit's join when want > 1.
func (m *Manager) forceJoin(lsn word.LSN, want int) {
	if lsn < m.dev.StableLSN() {
		return
	}
	start := time.Now()
	m.fmu.Lock()
	through := word.NilLSN
	if m.forcing {
		m.parked = append(m.parked, lsn)
		if m.joinWant > 0 && len(m.parked)+1 >= m.joinWant {
			m.joinWant = 0
			m.joined <- struct{}{}
		}
		for m.forcing && through == word.NilLSN {
			m.fdone.Wait()
			if lsn < m.dev.StableLSN() {
				// The force that covered lsn takes it out of parked as it ends.
				m.fmu.Unlock()
				m.Met.ForceWait.Since(start)
				return
			}
			through, m.next = m.next, word.NilLSN
		}
		m.unpark(lsn)
	}
	m.forcing = true
	if want > 1 {
		if want > len(m.parked)+1 {
			m.join(want)
		}
		through = word.NilLSN // the join closes the batch at the end of the log
	}
	if through == word.NilLSN {
		through = m.dev.EndLSN() - 1
	}
	m.fmu.Unlock()
	defer m.endForce(start, time.Now())
	m.dev.Force(through)
}

// unpark takes one caller waiting for lsn out of parked: it leads now.
func (m *Manager) unpark(lsn word.LSN) {
	for i, p := range m.parked {
		if p == lsn {
			m.parked = append(m.parked[:i], m.parked[i+1:]...)
			return
		}
	}
}

// join is a commit leader's wait for its siblings. The gate stays taken,
// so each caller that arrives parks behind the leader and counts; the one
// that brings the gate to want wakes it. The wait sleeps on a channel and a
// timer — it never spins, so at GOMAXPROCS 1 the siblings it waits for
// still run — and ends after one smoothed device force at the latest.
// Called and returns with fmu held.
func (m *Manager) join(want int) {
	m.joinWant = want
	bound := time.NewTimer(time.Duration(m.devForce.Load()))
	start := time.Now()
	m.fmu.Unlock()
	select {
	case <-m.joined:
	case <-bound.C:
	}
	bound.Stop()
	m.fmu.Lock()
	if m.joinWant != 0 {
		m.joinWant = 0
		m.Met.JoinTimeouts.Inc()
	} else {
		select { // the arrival's token, if the timer won the select above
		case <-m.joined:
		default:
		}
	}
	m.Met.JoinWait.Since(start)
}

// endForce ends the leader's turn, also when the device panicked (an I/O
// error): the parked callers wake, still volatile, and one leads the retry.
// The callers the force covered leave the gate here, not when they wake.
// The gate stays taken while a parked caller is still volatile: newcomers
// park behind the batch closed here.
func (m *Manager) endForce(start, devStart time.Time) {
	m.devForce.ObserveCapped(int64(time.Since(devStart)))
	stable := m.dev.StableLSN()
	m.fmu.Lock()
	released := uint64(1)
	kept := m.parked[:0]
	for _, lsn := range m.parked {
		if lsn < stable {
			released++
		} else {
			kept = append(kept, lsn)
		}
	}
	m.parked = kept
	if m.forcing = len(kept) > 0; m.forcing {
		m.next = m.dev.EndLSN() - 1
	}
	m.fdone.Broadcast()
	m.fmu.Unlock()
	d := time.Since(start)
	m.Met.Force.Observe(uint64(d))
	m.Met.Batch.Observe(released)
	m.bb.Span(obs.EvWALForce, d, 0, uint64(stable), released)
}

// ForceAll forces the entire volatile tail.
func (m *Manager) ForceAll() { m.Force(m.dev.EndLSN() - 1) }

// SetRecorder wires an optional flight recorder: every force lands in the
// black-box timeline with its LSN. Nil disables.
func (m *Manager) SetRecorder(b *obs.BlackBox) { m.bb = b }

// StableLSN returns the first LSN not guaranteed durable.
func (m *Manager) StableLSN() word.LSN { return m.dev.StableLSN() }

// EndLSN returns the LSN the next record will receive.
func (m *Manager) EndLSN() word.LSN { return m.dev.EndLSN() }

// IsStable reports whether the record at lsn is durable.
func (m *Manager) IsStable(lsn word.LSN) bool { return lsn < m.dev.StableLSN() }

// ReadAt decodes the record at lsn. An LSN below the truncation point
// returns an error wrapping ErrTruncated (the record is gone, not
// absent); a frame that exists but fails to decode returns a typed
// storage.CorruptFrameError (match with errors.Is(err,
// storage.ErrCorrupt)); any other failure means no record starts at lsn.
func (m *Manager) ReadAt(lsn word.LSN) (Record, error) {
	frame, ok := m.dev.ReadAt(lsn)
	if !ok {
		if trunc := m.dev.TruncLSN(); lsn < trunc {
			return nil, fmt.Errorf("wal: record at LSN %d reclaimed (truncation point %d): %w",
				lsn, trunc, ErrTruncated)
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

// Truncate releases log space below keep (segment granularity; keep ≤ 1
// frees nothing). Not under mu: the device waits for a force in flight
// when, and only when, there is something to free.
func (m *Manager) Truncate(keep word.LSN) { m.dev.Truncate(keep) }

// TypeStats reports how many records of type t were appended and their
// total framed bytes.
func (m *Manager) TypeStats(t Type) (count, bytes int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.count[t], m.bytes[t]
}

// VolumeByClass summarizes appended bytes by origin: transactional records
// (the coordinator's two-phase-commit records among them), collector
// records, stability-tracking records, and bookkeeping. Every live record
// type lands in exactly one class, so the four sum to the bytes appended.
// This is the breakdown of experiment E6.
func (m *Manager) VolumeByClass() (txBytes, gcBytes, trackBytes, bookBytes int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for t := Type(1); t < maxType; t++ {
		b := m.bytes[t]
		switch t {
		case TUpdate, TCLR, TAlloc, TCommit, TEnd, TLogical, TPrepare,
			TTwoPCBegin, TTwoPCDecide, TTwoPCEnd:
			txBytes += b
		case TFlip, TCopy, TScan, TGCEnd:
			gcBytes += b
		case TBase, TV2SCopy, TSFix, TVFlip:
			trackBytes += b
		case TEndWrite, TCheckpoint:
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
