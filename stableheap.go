// Package stableheap is a Go implementation of the stable heap of
// Kolodner & Weihl, "Atomic Incremental Garbage Collection and Recovery
// for a Large Stable Heap" (SIGMOD 1993; MIT/LCS/TR-534): storage that is
//
//   - managed automatically by a moving (copying) garbage collector,
//   - manipulated by atomic transactions with write-ahead logging and
//     repeating-history recovery, and
//   - accessed through a uniform storage model — one heap holding both
//     volatile and stable objects, where a volatile object becomes stable
//     (and durable) the moment a committing transaction makes it reachable
//     from a stable root.
//
// The headline properties, all reproduced and benchmarked here:
//
//   - the collector is incremental (bounded pauses via an Ellis/Li/Appel
//     page-protection read barrier, or a Baker per-reference barrier) and
//     atomic (its copy and scan steps are logged, so a crash at any instant
//     — including mid-collection — recovers, and the interrupted collection
//     simply resumes);
//   - recovery time is independent of heap size and shortened by cheap
//     fuzzy checkpoints;
//   - volatile objects pay none of the atomicity costs: the heap is divided
//     into a stable area (atomic incremental GC, logged) and a volatile
//     area (plain unlogged copying GC), with newly stable objects tracked
//     concurrently at commit and moved to the stable area at the next
//     volatile collection.
//
// The package runs entirely on simulated devices (an in-memory one-level
// store and a stable log with crash semantics), so crashes are
// deterministic and every recovery path is testable.
//
// # Quick start
//
//	h := stableheap.Open(stableheap.DefaultConfig())
//	tx := h.Begin()
//	obj, _ := tx.Alloc(1, 0, 1)    // 0 pointers, 1 data word
//	tx.SetData(obj, 0, 42)
//	tx.SetRoot(0, obj)             // reachable from a stable root:
//	tx.Commit()                    // …becomes stable at commit
//
//	disk, log := h.Crash()         // power failure
//	h2, _ := stableheap.Recover(stableheap.DefaultConfig(), disk, log)
//	tx2 := h2.Begin()
//	obj2, _ := tx2.Root(0)
//	v, _ := tx2.Data(obj2, 0)      // v == 42
package stableheap

import (
	"stableheap/internal/core"
	"stableheap/internal/gc"
	"stableheap/internal/obs"
	"stableheap/internal/storage"
	"stableheap/internal/storage/filestore"
	"stableheap/internal/word"
)

// GCMode names the stable area's collector (Config.StableGC).
type GCMode = gc.Mode

// The stable collectors. Ellis, the zero value, is the paper's; each other
// value is one ablation or extension of it.
const (
	// Ellis uses page protection: unscanned to-space pages trap on first
	// access and are scanned whole, and every heap operation donates one
	// scan quantum (the paper's recommended design).
	Ellis = gc.Ellis
	// EllisTrapDriven arms the same page protection but advances the scan
	// only through traps (the barrier experiments' flavor).
	EllisTrapDriven = gc.EllisTrapDriven
	// Baker checks every loaded pointer and transports from-space
	// targets (the §3.8 variant; higher mutator overhead, finer pauses).
	Baker = gc.Baker
	// StopTheWorld runs collections to completion inside one pause (the
	// paper's earlier-work baseline).
	StopTheWorld = gc.StopTheWorld
	// Concurrent runs the logged scan on a collector goroutine behind a
	// transporting read barrier; the stop latch is held only for the flip.
	Concurrent = gc.Concurrent
)

// Config sizes and parameterizes a heap. The zero value of any field takes
// a sensible default, so the zero Config is the paper's recommended
// configuration; DefaultConfig returns it with the default sizes filled in.
type Config = core.Config

// DefaultConfig returns a divided heap with the Ellis-style atomic
// incremental collector.
func DefaultConfig() Config { return core.DefaultConfig() }

// Ref is a reference to a heap object, registered with its transaction so
// the collectors keep it current as objects move (the paper's
// register/stack root set). A Ref is valid until its transaction finishes.
type Ref = core.Ref

// Addr is a virtual address in the simulated heap (exposed for inspection
// tools; application code should treat Refs as opaque).
type Addr = word.Addr

// Disk is the nonvolatile page store backing a heap. There is one page
// store, storage.Disk, in memory or over a directory's files; faults are
// injected into the bytes under it (internal/faultfs), not by a wrapper
// around it.
type Disk = *storage.Disk

// LogDevice is the stable log. There is one log, storage.Log, in memory or
// over a directory's files; faults and a slow disk go into the bytes under
// it (internal/faultfs), not into a wrapper around it.
type LogDevice = *storage.Log

// Errors returned by heap operations.
var (
	// ErrConflict reports a lock conflict (deadlock victim or busy
	// object); abort the transaction and retry.
	ErrConflict = core.ErrConflict
	// ErrHeapFull reports that an allocation could not be satisfied even
	// after collection.
	ErrHeapFull = core.ErrHeapFull
	// ErrTxDone reports an operation on a finished transaction.
	ErrTxDone = core.ErrTxDone
)

// Heap is a stable heap instance over simulated devices.
type Heap struct {
	inner *core.Heap
}

// Open opens the stable heap in cfg.Dir's files, or a fresh one in memory
// without Dir, panicking where OpenDir would return an error (a Config
// core.Config.Validate refuses, a filesystem error, a refused restart).
// Every open of an existing heap is a restart: core.Open decides from the
// bytes it finds whether to format, recover or rebuild from the log.
func Open(cfg Config) *Heap {
	h, err := OpenDir(cfg)
	if err != nil {
		panic(err.Error())
	}
	return h
}

// adopt wraps what core.Open produced.
func adopt(inner *core.Heap, err error) (*Heap, error) {
	if err != nil {
		return nil, err
	}
	return &Heap{inner: inner}, nil
}

// OpenDir opens the stable heap in cfg.Dir: a fresh directory is
// formatted, an existing one recovered, one whose master is gone rebuilt
// from its log (or refused, if the log is truncated).
func OpenDir(cfg Config) (*Heap, error) {
	db, lb, err := filestore.Backings(cfg.Dir)
	if err != nil {
		return nil, err
	}
	return adopt(core.Open(cfg, db, lb))
}

// RecoverDir is OpenDir, the name a process restart reads best under.
// Torn log tails left by a kill are cut by the file layer and repaired by
// ordinary crash recovery.
func RecoverDir(cfg Config) (*Heap, error) { return OpenDir(cfg) }

// Recover restarts the heap that ran on disk and log (the devices Crash or
// Close returned, now closed) over the bytes they left: repeating history
// from the last checkpoint, rolling back the transactions that were active
// at the crash, restoring (and later resuming) any interrupted collection,
// and evacuating recovered newly stable objects out of the volatile area.
// Work is bounded by the log written since the last checkpoint, never by
// heap size.
func Recover(cfg Config, disk Disk, log LogDevice) (*Heap, error) {
	db, lb := storage.Backings(disk, log)
	return adopt(core.Open(cfg, db, lb))
}

// RecoverFromLog rebuilds the entire heap from the log alone — the
// total-media-failure case (§2.2.2): the disk is destroyed, and repeating
// history reconstructs every page from the first checkpoint onward. The
// log must be untruncated (the archive discipline); a truncated log is
// refused. The heap is rebuilt onto a fresh page store in memory.
func RecoverFromLog(cfg Config, log LogDevice) (*Heap, error) {
	_, lb := storage.Backings(nil, log)
	return adopt(core.Open(cfg, storage.NewMemBacking(), lb))
}

// Begin starts a transaction. Transactions are serializable (strict
// two-phase read/write locking) and total (commit makes every effect
// durable; abort removes every effect).
func (h *Heap) Begin() *Tx { return &Tx{inner: h.inner.Begin()} }

// Checkpoint takes a fuzzy checkpoint: one log record, no synchronous
// writes; it bounds the work of the next recovery.
func (h *Heap) Checkpoint() { h.inner.Checkpoint() }

// TruncateLog releases log space no longer needed by recovery.
func (h *Heap) TruncateLog() { h.inner.TruncateLog() }

// CollectVolatile runs one volatile-area collection, returning how many
// newly stable objects were moved into the stable area. Collections also
// run automatically when the volatile area fills.
func (h *Heap) CollectVolatile() (int, error) { return h.inner.CollectVolatile() }

// CollectStable runs a stable-area collection to completion.
func (h *Heap) CollectStable() { h.inner.CollectStable() }

// StartStableCollection flips the stable area without finishing the
// collection; subsequent mutator activity (and StepStable) drives it
// incrementally.
func (h *Heap) StartStableCollection() { h.inner.StartStableCollection() }

// StepStable advances an active stable collection by one quantum,
// reporting whether it is still active.
func (h *Heap) StepStable() bool { return h.inner.StepStable() }

// Crash simulates a system failure: main memory, the volatile log tail,
// the lock table and all active transactions are lost; the disk and the
// stable log survive in their bytes. The devices are released as a process
// kill releases its files and returned for Recover; the Heap is dead
// afterwards. RecoverDir reopens a Dir heap's directory as well.
//
// Crash is also the only call a heap accepts once a device has failed under
// it: the heap is fail-stop, so after a typed device panic (storage.ErrIO,
// storage.ErrCorrupt) has unwound one operation, every other call — on any
// goroutine — panics with that same error rather than run on.
func (h *Heap) Crash() (Disk, LogDevice) { return h.inner.Crash() }

// Close shuts down cleanly: aborts active transactions, completes any
// running collection, flushes, takes a final forced checkpoint and closes
// the devices. Recover over them (from Devices) then reopens the heap
// from that checkpoint.
func (h *Heap) Close() { h.inner.Close() }

// Devices returns the heap's simulated devices.
func (h *Heap) Devices() (Disk, LogDevice) { return h.inner.Devices() }

// InDoubt lists prepared transactions restored by recovery, awaiting the
// coordinator's decision.
func (h *Heap) InDoubt() []uint64 {
	ids := h.inner.InDoubt()
	out := make([]uint64, len(ids))
	for i, id := range ids {
		out[i] = uint64(id)
	}
	return out
}

// ResolveCommit applies the coordinator's commit decision to an in-doubt
// transaction.
func (h *Heap) ResolveCommit(id uint64) error { return h.inner.ResolveCommit(word.TxID(id)) }

// ResolveAbort applies the coordinator's abort decision to an in-doubt
// transaction, rolling its effects back through any object moves.
func (h *Heap) ResolveAbort(id uint64) error { return h.inner.ResolveAbort(word.TxID(id)) }

// Stats summarizes subsystem activity since Open/Recover.
type Stats struct {
	TxBegun, TxCommitted, TxAborted int64
	LoggedUpdates, VolatileWrites   int64
	StableCollections               int
	CopiedObjects                   int64
	ReadBarrierTraps                int64
	VolatileCollections             int
	NewlyStableMoved                int64
	TrackedObjects                  int64
	LogAppends, LogForces           int64
	LogBytesAppended                int64
	CheckpointsTaken                int64
}

// Stats returns a snapshot of activity counters.
func (h *Heap) Stats() Stats {
	txs := h.inner.TxStats()
	gcs := h.inner.GCStats()
	vgs := h.inner.VGCStats()
	trk := h.inner.TrackerStats()
	dev := h.inner.Log().Device().Stats()
	mem := h.inner.Mem().Stats()
	cps := h.inner.CheckpointStats()
	return Stats{
		TxBegun: txs.Begun, TxCommitted: txs.Committed, TxAborted: txs.Aborted,
		LoggedUpdates: txs.Updates, VolatileWrites: txs.VolWrites,
		StableCollections: gcs.Collections, CopiedObjects: gcs.CopiedObjs,
		ReadBarrierTraps:    mem.Traps,
		VolatileCollections: vgs.Collections, NewlyStableMoved: vgs.MovedObjs,
		TrackedObjects: trk.Objects,
		LogAppends:     dev.Appends, LogForces: dev.Forces,
		LogBytesAppended: dev.BytesAppended,
		CheckpointsTaken: cps.Taken,
	}
}

// Metrics is the unified observability snapshot: every subsystem's
// counters and latency histograms (power-of-two buckets with
// p50/p90/p99/max) under one namespace. It marshals to JSON and renders
// Prometheus text exposition via WritePrometheus.
type Metrics = obs.Snapshot

// HistSnapshot is one latency histogram inside a Metrics snapshot.
type HistSnapshot = obs.HistSnapshot

// MetricsServer is a live exposition endpoint started by ServeMetrics.
type MetricsServer = obs.Server

// Metrics returns the unified observability snapshot. The histograms are
// always on — recording is a handful of atomic adds — so any run can
// report latency distributions without a measurement mode.
func (h *Heap) Metrics() Metrics { return h.inner.Metrics() }

// TraceJSON renders the flight recorder's events — spans and instants — in
// Chrome trace_event JSON form (loadable in about://tracing or
// ui.perfetto.dev). The recorder runs only when Config.FlightRecorder is
// set; otherwise the document is empty but still loadable.
func (h *Heap) TraceJSON() []byte { return h.inner.TraceJSON() }

// ServeMetrics starts an HTTP endpoint (e.g. addr "localhost:8077")
// exposing /metrics (Prometheus text), /metrics.json (the snapshot as
// JSON) and /trace (Chrome trace JSON). Close the returned server when
// done.
func (h *Heap) ServeMetrics(addr string) (*MetricsServer, error) {
	return obs.Serve(addr, h.inner.Metrics, h.inner.FlightEvents)
}

// Internal exposes the underlying core heap for the benchmark harness and
// inspection tools; applications should not need it.
func (h *Heap) Internal() *core.Heap { return h.inner }

// Tx is an open transaction.
type Tx struct {
	inner *core.Tx
}

// ID returns the transaction's identifier.
func (t *Tx) ID() uint64 { return uint64(t.inner.ID()) }

// Alloc creates an object with nptrs pointer fields (initialized nil) and
// ndata zero data words, tagged with the caller's typeID. New objects are
// volatile until a committing transaction makes them reachable from a
// stable root.
func (t *Tx) Alloc(typeID uint16, nptrs, ndata int) (*Ref, error) {
	return t.inner.Alloc(typeID, nptrs, ndata)
}

// Shape returns the referenced object's type id, pointer-field count and
// data-word count.
func (t *Tx) Shape(r *Ref) (typeID uint16, nptrs, ndata int, err error) {
	return t.inner.Shape(r)
}

// Ptr reads pointer field i, returning nil for a nil pointer.
func (t *Tx) Ptr(r *Ref, i int) (*Ref, error) { return t.inner.Ptr(r, i) }

// SetPtr stores val (possibly nil) into pointer field i.
func (t *Tx) SetPtr(r *Ref, i int, val *Ref) error { return t.inner.SetPtr(r, i, val) }

// Data reads data word j.
func (t *Tx) Data(r *Ref, j int) (uint64, error) { return t.inner.Data(r, j) }

// SetData stores v into data word j.
func (t *Tx) SetData(r *Ref, j int, v uint64) error { return t.inner.SetData(r, j, v) }

// AddData atomically adds delta (wrapping) to data word j using a logical
// log record: no before-image, and abort compensates with the negated
// delta — the paper's "logical undo" optimization (§2.2.4). Ideal for
// counters and balances.
func (t *Tx) AddData(r *Ref, j int, delta uint64) error { return t.inner.AddData(r, j, delta) }

// Root reads stable root slot i (nil if unset). Stable roots are the
// programmer-designated global roots whose reachable closure survives
// crashes.
func (t *Tx) Root(i int) (*Ref, error) { return t.inner.Root(i) }

// SetRoot stores val into stable root slot i. Any volatile objects made
// reachable by this store become stable when the transaction commits.
func (t *Tx) SetRoot(i int, val *Ref) error { return t.inner.SetRoot(i, val) }

// VolRoot reads volatile root slot i. Volatile roots are global but do not
// survive crashes (e.g. caches, session state).
func (t *Tx) VolRoot(i int) (*Ref, error) { return t.inner.VolRoot(i) }

// SetVolRoot stores val into volatile root slot i.
func (t *Tx) SetVolRoot(i int, val *Ref) error { return t.inner.SetVolRoot(i, val) }

// SetDataBytes stores b into consecutive data words starting at word j
// (padded with zeros to a word boundary); the object needs
// (len(b)+7)/8 data words from j. A convenience for string-ish payloads.
func (t *Tx) SetDataBytes(r *Ref, j int, b []byte) error {
	for off := 0; off < len(b); off += 8 {
		var w [8]byte
		copy(w[:], b[off:])
		var v uint64
		for k := 7; k >= 0; k-- {
			v = v<<8 | uint64(w[k])
		}
		if err := t.SetData(r, j+off/8, v); err != nil {
			return err
		}
	}
	return nil
}

// DataBytes reads n bytes of data words starting at word j (the inverse of
// SetDataBytes).
func (t *Tx) DataBytes(r *Ref, j, n int) ([]byte, error) {
	out := make([]byte, 0, n)
	for off := 0; off < n; off += 8 {
		v, err := t.Data(r, j+off/8)
		if err != nil {
			return nil, err
		}
		for k := 0; k < 8 && off+k < n; k++ {
			out = append(out, byte(v>>(8*k)))
		}
	}
	return out, nil
}

// Commit tracks and stabilizes any volatile objects the transaction made
// reachable from stable roots (logging their initial values), then writes
// and forces the commit record. On ErrConflict the transaction has been
// aborted.
func (t *Tx) Commit() error { return t.inner.Commit() }

// Prepare makes the transaction's effects durable without deciding its
// fate — the participant side of two-phase commit. Locks stay held; if the
// system crashes, the transaction is restored in-doubt at recovery and
// resolved with Heap.ResolveCommit / Heap.ResolveAbort. After Prepare,
// only Commit or Abort are legal.
func (t *Tx) Prepare() error { return t.inner.Prepare() }

// Abort rolls the transaction back: logged updates are undone in place
// with compensation records; unlogged volatile writes are undone from
// memory.
func (t *Tx) Abort() error { return t.inner.Abort() }

// Err returns the transaction's sticky error (set by a conflict), if any.
func (t *Tx) Err() error { return t.inner.Err() }
