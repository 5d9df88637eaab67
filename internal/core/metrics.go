package core

import (
	"bytes"

	"stableheap/internal/gc"
	"stableheap/internal/obs"
)

// heapMetrics holds the metrics only the core can see — whole-commit
// latency including the park on the log force, lock waits, the stop
// latch, the collectors' hand-offs to relocate and the recovery phases.
// The histograms are always on: Observe is a few atomic adds, so there is
// no measurement mode to enable and every run can answer "what was the p99
// commit latency". Recovery is registered only on a heap that recovered.
// LatchStop counts every heap stop, a concurrent scan's quanta included
// (each quantum is one).
type heapMetrics struct {
	TxCommit     obs.Histogram `obs:"tx_commit_ns"`       // Tx.Commit wall time (tracking + force + finish)
	TxAbort      obs.Histogram `obs:"tx_abort_ns"`        // Tx.Abort / failed-commit rollback wall time
	TxConflict   obs.Histogram `obs:"tx_conflict_ns"`     // commits rejected by stability-tracking conflicts
	LockWait     obs.Histogram `obs:"lock_wait_ns"`       // contended lock-acquire wait time
	LatchStop    obs.Histogram `obs:"latch_stop_wait_ns"` // wait to stop the heap (exclusive latch acquire)
	RelocBatches obs.Counter   `obs:"gc_relocate_batches_total"`
	RelocMoves   obs.Counter   `obs:"gc_relocate_moves_total"`
	Recovery     struct {
		Reopen   obs.Histogram `obs:"recovery_reopen_ns"`   // Open's device opens, before the heap existed
		Analysis obs.Histogram `obs:"recovery_analysis_ns"` // recovery analysis pass wall time
		Redo     obs.Histogram `obs:"recovery_redo_ns"`     // recovery redo pass wall time
		Undo     obs.Histogram `obs:"recovery_undo_ns"`     // recovery undo pass wall time
		Evacuate obs.Histogram `obs:"recovery_evacuate_ns"` // post-recovery evacuation of recovered newly stable objects
	}
}

// register names the metrics of every subsystem the heap runs, each group
// where its subsystem or mode is present. The names are the tags on the
// metric structs' fields.
func (hp *Heap) register() {
	hp.reg.Register(&hp.met, &hp.txm.Met, &hp.sgc.Met, &hp.mem.Met, &hp.log.Met, &hp.locks.Met, &hp.ckpt.Met)
	if hp.cfg.StableGC == gc.Concurrent {
		hp.reg.Register(&hp.sgc.Met.Conc)
	}
	if hp.vgc != nil {
		hp.reg.Register(&hp.vgc.Met, &hp.track.Met)
		if hp.nurLo != 0 {
			hp.reg.Register(&hp.vgc.Met.Nursery)
		}
		if hp.cfg.ConcurrentVGC {
			hp.reg.Register(&hp.vgc.Met.Conc)
		}
	}
}

// Metrics returns the unified observability snapshot: every subsystem's
// counters and latency histograms under one namespace. Names follow one
// scheme: a subsystem prefix (tx_, gc_, vgc_, cache_, wal_, lock_,
// checkpoint_, track_, recovery_, obs_, filestore_), counters end in _total,
// nanosecond histograms in _ns; the unitless histograms are
// wal_force_batch (callers released per log force) and
// track_closure_objects. Each name is declared once, on its metric's
// field, and registered at open (register); the rest are values read here
// as units or derived from them: cache misses (fetches plus fresh pages),
// the devices' LogStats and DiskStats, the log's bytes by class,
// the last recovery's record counts, the flight recorder's ring and the
// watchdog's trips. Every registered metric is atomic, so Metrics takes
// no latch: a scrape never waits on a stopped heap, and a failed heap
// still answers. The snapshot marshals to JSON and renders Prometheus text
// via WritePrometheus.
func (hp *Heap) Metrics() obs.Snapshot {
	s := hp.reg.Snapshot()
	s.SetCounter("cache_misses_total", int64(hp.mem.Met.Fetches.Load()+hp.mem.Met.FreshPages.Load()))
	ls := hp.logDev.Stats()
	s.SetCounter("wal_appends_total", ls.Appends)
	s.SetCounter("wal_forces_total", ls.Forces)
	s.SetCounter("wal_bytes_appended_total", ls.BytesAppended)
	s.SetCounter("wal_bytes_stable_total", ls.BytesStable)
	txB, gcB, trackB, bookB := hp.log.VolumeByClass()
	s.SetCounter("wal_bytes_tx_total", txB)
	s.SetCounter("wal_bytes_gc_total", gcB)
	s.SetCounter("wal_bytes_track_total", trackB)
	s.SetCounter("wal_bytes_book_total", bookB)
	if hp.lastRecovery != nil {
		s.SetCounter("recovery_redo_scanned_total", int64(hp.lastRecovery.RedoScanned))
		s.SetCounter("recovery_redo_applied_total", int64(hp.lastRecovery.RedoApplied))
	}
	if hp.bb != nil {
		s.SetCounter("obs_blackbox_events_total", int64(hp.bb.Seq()))
		s.SetCounter("obs_blackbox_dropped_total", int64(hp.bb.Dropped()))
	}
	if hp.wd != nil {
		s.SetCounter("obs_watchdog_trips_total", int64(hp.wd.Trips()))
	}
	// The devices' durable-layer counters, under the filestore_ prefix the
	// file-backed heaps made them known by: the log's syncs (fdatasyncs on
	// files) and the page store's barriers, each of which syncs pages.dat.
	// The page cache's counters are the vm pool's cache_ counters.
	barriers := hp.disk.Stats().Barriers
	s.SetCounter("filestore_log_fsyncs_total", ls.Syncs)
	s.SetCounter("filestore_page_fsyncs_total", barriers)
	s.SetCounter("filestore_barriers_total", barriers)
	return s
}

// TraceJSON renders the flight recorder's ring as Chrome trace_event JSON,
// loadable in about://tracing or ui.perfetto.dev. The recorder runs only
// when Config.FlightRecorder is set; with it off TraceJSON returns an
// empty, still-loadable trace document.
func (hp *Heap) TraceJSON() []byte {
	var buf bytes.Buffer
	obs.WriteEventsChrome(&buf, hp.bb.Events())
	return buf.Bytes()
}

// ServeMetrics starts an HTTP endpoint (e.g. addr "localhost:8077")
// exposing /metrics (Prometheus text), /metrics.json (the snapshot as
// JSON) and /trace (Chrome trace JSON). Close the returned server when
// done.
func (hp *Heap) ServeMetrics(addr string) (*obs.Server, error) {
	return obs.Serve(addr, hp.Metrics, hp.FlightEvents)
}
