package repl

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"stableheap/internal/core"
	"stableheap/internal/obs"
	"stableheap/internal/recovery"
	"stableheap/internal/storage"
	"stableheap/internal/vm"
	"stableheap/internal/wal"
	"stableheap/internal/word"
)

// StandbyConfig tunes a warm standby.
type StandbyConfig struct {
	// Name is the standby's stable identity: the primary keys its
	// retention floor by it, so reconnects from the same standby move one
	// floor instead of leaking a new one per session.
	Name string
	// Heap is the primary's configuration — the promoted heap and
	// snapshot reads are built with it, and the standby's own page store
	// matches its geometry. Zero fields default exactly as in core.Open.
	Heap core.Config
	// ReconnectMin/Max bound the jittered exponential backoff between
	// dial attempts (defaults 5ms / 1s).
	ReconnectMin time.Duration
	ReconnectMax time.Duration
	// Seed makes the backoff jitter deterministic for tests (0 picks 1).
	Seed int64
}

func (c StandbyConfig) withDefaults() StandbyConfig {
	if c.Name == "" {
		c.Name = "standby"
	}
	if c.ReconnectMin <= 0 {
		c.ReconnectMin = 5 * time.Millisecond
	}
	if c.ReconnectMax <= 0 {
		c.ReconnectMax = time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// ErrPromoted is returned by operations on a standby after Promote: the
// devices now belong to the promoted heap.
var ErrPromoted = errors.New("repl: standby already promoted")

// Standby is a warm replica fed by log shipping. It owns a disk and log
// seeded from a base backup (core.Heap.BaseBackup) and runs continuous
// redo (recovery.Applier) over every shipped frame, maintaining the
// invariant that its devices always equal a primary that crashed at
// AppliedLSN. It supports read-only snapshot reads at the applied LSN
// and promotion to a serving heap via ordinary bounded recovery.
type Standby struct {
	cfg  StandbyConfig
	hcfg core.Config // normalized

	mu       sync.Mutex // guards devices, applier, promoted, conn
	disk     storage.PageStore
	logDev   storage.LogDevice
	logMgr   *wal.Manager
	mem      *vm.Store
	ap       *recovery.Applier
	promoted bool
	conn     net.Conn // current session's connection, for interruption

	applied       atomic.Uint64 // word.LSN: durably applied prefix
	primaryStable atomic.Uint64 // word.LSN: primary's horizon at last batch

	stopOnce sync.Once
	stopped  chan struct{}

	rec *obs.BlackBox // optional flight recorder; applyBatch records EvStandbyApply

	connects      obs.Counter
	reconnects    obs.Counter
	applyBatches  obs.Counter
	applyRecords  obs.Counter
	applyBytes    obs.Counter
	snapshotReads obs.Counter
	applyNs       obs.Histogram
	failoverNs    obs.Histogram
	lagBytes      obs.Gauge
	appliedLSN    obs.Gauge
}

// NewStandby builds a warm standby over a base backup's devices: it
// bootstraps the page store with recovery's analysis + redo over the
// retained stable log (so the store is current through the backup's end)
// and is then ready to apply shipped frames. The standby resumes
// shipping from the backup log's end LSN.
func NewStandby(cfg StandbyConfig, disk storage.PageStore, logDev storage.LogDevice) (*Standby, error) {
	cfg = cfg.withDefaults()
	hcfg := cfg.Heap.WithDefaults()
	logMgr := wal.NewManager(logDev)
	mem := vm.New(vm.Config{PageSize: hcfg.PageSize, CachePages: hcfg.CachePages}, disk, logMgr)
	ap, err := recovery.StartApplier(mem, logMgr, recovery.Options{})
	if err != nil {
		return nil, fmt.Errorf("repl: bootstrapping standby: %w", err)
	}
	s := &Standby{
		cfg: cfg, hcfg: hcfg,
		disk: disk, logDev: logDev, logMgr: logMgr, mem: mem, ap: ap,
		stopped: make(chan struct{}),
	}
	s.applied.Store(uint64(logDev.EndLSN()))
	s.appliedLSN.Set(int64(logDev.EndLSN()))
	return s, nil
}

// SetRecorder attaches a flight recorder: every applied batch from then
// on lands as an EvStandbyApply event (applied LSN, lag bytes), so a
// post-mortem dump shows how far the replica trailed the primary.
func (s *Standby) SetRecorder(b *obs.BlackBox) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rec = b
}

// Name returns the standby's stable identity.
func (s *Standby) Name() string { return s.cfg.Name }

// AppliedLSN is the end of the durably applied log prefix — the resume
// point a reconnect would request.
func (s *Standby) AppliedLSN() word.LSN { return word.LSN(s.applied.Load()) }

// LagBytes is the replication lag in log bytes: how far the applied
// prefix trails the primary's stable horizon as last reported.
func (s *Standby) LagBytes() int64 {
	lag := int64(s.primaryStable.Load()) - int64(s.applied.Load())
	if lag < 0 {
		return 0
	}
	return lag
}

// RunConn runs one replication session over conn: handshake, then apply
// batches and ack until the connection drops, Close, or Promote. The
// returned error is ErrResumeTruncated when the primary can no longer
// serve our resume point (terminal — the standby needs re-seeding).
func (s *Standby) RunConn(conn net.Conn) error {
	s.mu.Lock()
	if s.promoted {
		s.mu.Unlock()
		conn.Close()
		return ErrPromoted
	}
	s.conn = conn
	s.mu.Unlock()
	defer conn.Close()

	resume := s.AppliedLSN()
	if err := writeMsg(conn, msgHello, helloPayload(resume, s.cfg.Name)); err != nil {
		return err
	}
	kind, payload, err := readMsg(conn)
	if err != nil {
		return err
	}
	if kind != msgHelloAck {
		return fmt.Errorf("repl: expected HELLO_ACK, got %s", kindName(kind))
	}
	status, primEnd, err := parseHelloAck(payload)
	if err != nil {
		return err
	}
	if status == helloAckTruncated {
		return fmt.Errorf("%w (resume %d, primary stable %d)", ErrResumeTruncated, resume, primEnd)
	}
	s.connects.Inc()

	for {
		kind, payload, err := readMsg(conn)
		if err != nil {
			return err
		}
		if kind != msgFrames {
			return fmt.Errorf("repl: expected FRAMES, got %s", kindName(kind))
		}
		start, stable, frames, err := parseFrames(payload)
		if err != nil {
			return err
		}
		applied, err := s.applyBatch(start, frames)
		if err != nil {
			return err
		}
		s.primaryStable.Store(uint64(stable))
		lag := int64(stable) - int64(applied)
		if lag < 0 {
			lag = 0
		}
		s.lagBytes.Set(lag)
		s.recordApply(applied, lag)
		if err := writeMsg(conn, msgAck, ackPayload(applied)); err != nil {
			return err
		}
	}
}

// applyBatch appends a batch of shipped frames to the replica log at
// their original LSNs, forces them, and folds each record into the page
// store via the continuous-redo applier. Append+force strictly precede
// apply: the applier's invariant is that the stable log already holds
// everything it has applied (an ack promises durability, and a shipped
// checkpoint may only become the master once it is in our stable log).
func (s *Standby) applyBatch(start word.LSN, data []byte) (word.LSN, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.promoted {
		return 0, ErrPromoted
	}
	if end := s.logDev.EndLSN(); start != end {
		return 0, fmt.Errorf("repl: batch starts at %d, replica log ends at %d", start, end)
	}
	t0 := time.Now()
	type pending struct {
		lsn word.LSN
		rec wal.Record
	}
	recs := make([]pending, 0, 16)
	for off := 0; off < len(data); {
		n, err := wal.FrameLen(data[off:])
		if err != nil {
			return 0, err
		}
		rec, err := wal.Decode(data[off : off+n])
		if err != nil {
			return 0, fmt.Errorf("repl: corrupt shipped frame at offset %d: %w", off, err)
		}
		recs = append(recs, pending{s.logDev.Append(data[off : off+n]), rec})
		off += n
	}
	storage.ForceAll(s.logDev)
	for _, pr := range recs {
		s.ap.Apply(pr.lsn, pr.rec)
	}
	applied := s.logDev.EndLSN()
	s.applied.Store(uint64(applied))
	s.appliedLSN.Set(int64(applied))
	s.applyNs.Since(t0)
	s.applyBatches.Inc()
	s.applyRecords.Add(uint64(len(recs)))
	s.applyBytes.Add(uint64(len(data)))
	return applied, nil
}

// recordApply emits one EvStandbyApply into the attached flight recorder
// (nil-safe: a no-op when none is attached).
func (s *Standby) recordApply(applied word.LSN, lag int64) {
	s.mu.Lock()
	b := s.rec
	s.mu.Unlock()
	b.Record(obs.EvStandbyApply, 0, uint64(applied), uint64(lag))
}

// Run dials and serves sessions until Close or Promote, reconnecting
// with jittered exponential backoff after connection failures and
// resuming from the applied LSN. It returns nil after Close/Promote and
// ErrResumeTruncated if the primary can no longer serve our resume point.
func (s *Standby) Run(dial func() (net.Conn, error)) error {
	rng := rand.New(rand.NewSource(s.cfg.Seed))
	delay := s.cfg.ReconnectMin
	for attempt := 0; ; attempt++ {
		if s.isStopped() {
			return nil
		}
		conn, err := dial()
		if err == nil {
			if attempt > 0 {
				s.reconnects.Inc()
			}
			err = s.RunConn(conn)
			if errors.Is(err, ErrResumeTruncated) {
				return err
			}
			delay = s.cfg.ReconnectMin // healthy session: reset backoff
		}
		if s.isStopped() {
			return nil
		}
		// Full jitter: sleep uniformly in [delay/2, delay).
		sleep := delay/2 + time.Duration(rng.Int63n(int64(delay/2)+1))
		timer := time.NewTimer(sleep)
		select {
		case <-s.stopped:
			timer.Stop()
			return nil
		case <-timer.C:
		}
		if delay *= 2; delay > s.cfg.ReconnectMax {
			delay = s.cfg.ReconnectMax
		}
	}
}

func (s *Standby) isStopped() bool {
	select {
	case <-s.stopped:
		return true
	default:
		return false
	}
}

// WaitCaughtUp blocks until the applied LSN reaches target (e.g. the
// primary's LogStableLSN) or the timeout expires.
func (s *Standby) WaitCaughtUp(target word.LSN, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for s.AppliedLSN() < target {
		if time.Now().After(deadline) {
			return fmt.Errorf("repl: still at %d after %v, want %d", s.AppliedLSN(), timeout, target)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// ReadSnapshot materializes a read-only heap at the applied LSN: it
// recovers copies of the standby's devices, so losers in flight at the
// snapshot point are rolled back and the result is transaction-
// consistent. The snapshot is independent — reads on it never disturb
// replication — and is simply discarded when done.
func (s *Standby) ReadSnapshot() (*core.Heap, word.LSN, error) {
	s.mu.Lock()
	if s.promoted {
		s.mu.Unlock()
		return nil, 0, ErrPromoted
	}
	disk := s.disk.Clone()
	logCopy := s.logDev.Clone()
	at := s.AppliedLSN()
	s.mu.Unlock()
	s.snapshotReads.Inc()
	hp, err := core.Recover(s.hcfg, disk, logCopy)
	if err != nil {
		return nil, 0, fmt.Errorf("repl: snapshot recovery at %d: %w", at, err)
	}
	return hp, at, nil
}

// PromoteStats reports what failover cost and what it found.
type PromoteStats struct {
	Duration   time.Duration // core.Recover wall time
	AppliedLSN word.LSN      // shipped prefix the promoted heap starts from
	RedoStart  word.LSN      // where repeating history began
	Scanned    int           // redo records scanned
	Losers     int           // in-flight transactions rolled back
	InDoubt    int           // prepared transactions restored
	GCResumed  bool          // an interrupted incremental collection was restored
}

// Promote fails the standby over to a serving primary: replication stops,
// and ordinary bounded recovery runs on the standby's own devices —
// analysis from the last shipped checkpoint, redo of the shipped tail
// (cheap: continuous apply already installed it, so redo is page-LSN
// no-ops except pages evicted unflushed), undo of transactions in flight
// at the failover point, and restoration of any interrupted incremental
// collection, which the promoted heap resumes where the primary left
// off. The standby is dead afterwards; the caller owns the heap.
func (s *Standby) Promote() (*core.Heap, PromoteStats, error) {
	s.mu.Lock()
	if s.promoted {
		s.mu.Unlock()
		return nil, PromoteStats{}, ErrPromoted
	}
	s.promoted = true
	conn := s.conn
	s.mu.Unlock()
	s.stopOnce.Do(func() { close(s.stopped) })
	if conn != nil {
		conn.Close() // unblock RunConn; applyBatch already sees promoted
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	applied := s.AppliedLSN()
	t0 := time.Now()
	hp, err := core.Recover(s.hcfg, s.disk, s.logDev)
	if err != nil {
		return nil, PromoteStats{}, fmt.Errorf("repl: promotion recovery: %w", err)
	}
	d := time.Since(t0)
	s.failoverNs.Observe(uint64(d))
	res := hp.LastRecovery()
	st := PromoteStats{
		Duration:   d,
		AppliedLSN: applied,
		RedoStart:  res.RedoStart,
		Scanned:    res.RedoScanned,
		Losers:     len(res.Losers),
		InDoubt:    len(res.InDoubt),
		GCResumed:  hp.StableCollector().Active(),
	}
	return hp, st, nil
}

// Close stops replication (Run returns, the current session drops) but
// leaves the devices intact; a new Standby could be built over them.
func (s *Standby) Close() {
	s.stopOnce.Do(func() { close(s.stopped) })
	s.mu.Lock()
	conn := s.conn
	s.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

// ApplierStats exposes the continuous-redo applier's counters.
func (s *Standby) ApplierStats() recovery.ApplierStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ap.Stats()
}

// Metrics snapshots the standby's counters and latency distributions
// under the repl_ namespace.
func (s *Standby) Metrics() obs.Snapshot {
	snap := obs.NewSnapshot()
	snap.SetCounter("repl_connects_total", int64(s.connects.Load()))
	snap.SetCounter("repl_reconnects_total", int64(s.reconnects.Load()))
	snap.SetCounter("repl_apply_batches_total", int64(s.applyBatches.Load()))
	snap.SetCounter("repl_applied_records_total", int64(s.applyRecords.Load()))
	snap.SetCounter("repl_applied_bytes_total", int64(s.applyBytes.Load()))
	snap.SetCounter("repl_snapshot_reads_total", int64(s.snapshotReads.Load()))
	snap.SetCounter("repl_applied_lsn", s.appliedLSN.Load())
	snap.SetCounter("repl_lag_bytes", s.lagBytes.Load())
	snap.SetCounter("repl_lag_lsn", s.lagBytes.Load())
	snap.SetHist("repl_apply_ns", s.applyNs.Snapshot())
	snap.SetHist("repl_failover_ns", s.failoverNs.Snapshot())
	return snap
}
