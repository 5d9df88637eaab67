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
// A heap lives in a directory's files (Config.Dir) or, without one, in
// memory; both run the same page-store and log formats, and Crash
// abandons the devices the way a process kill does, so crashes are
// deterministic and every recovery path is testable.
//
// The heap, transaction and cluster types are the internal packages' own
// (Heap is core.Heap, Tx is core.Tx, Cluster is shard.Cluster), re-exported
// here; their methods are documented there.
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

// Heap is a stable heap instance.
type Heap = core.Heap

// Tx is an open transaction.
type Tx = core.Tx

// TxID names a transaction: Tx.ID, and the in-doubt lists of Heap.InDoubt
// and Cluster.InDoubt.
type TxID = word.TxID

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

// OpenDir opens the stable heap in cfg.Dir: a fresh directory is
// formatted, an existing one recovered, one whose master is gone rebuilt
// from its log (or refused, if the log is truncated).
func OpenDir(cfg Config) (*Heap, error) {
	db, lb, err := filestore.Backings(cfg.Dir)
	if err != nil {
		return nil, err
	}
	return core.Open(cfg, db, lb)
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
	return core.Open(cfg, db, lb)
}

// RecoverFromLog rebuilds the entire heap from the log alone — the
// total-media-failure case (§2.2.2): the disk is destroyed, and repeating
// history reconstructs every page from the first checkpoint onward. The
// log must be untruncated (the archive discipline); a truncated log is
// refused. The heap is rebuilt onto a fresh page store in memory.
func RecoverFromLog(cfg Config, log LogDevice) (*Heap, error) {
	_, lb := storage.Backings(nil, log)
	return core.Open(cfg, storage.NewMemBacking(), lb)
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
