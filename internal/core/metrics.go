package core

import (
	"bytes"

	"stableheap/internal/gc"
	"stableheap/internal/obs"
)

// heapMetrics holds the heap-level latency histograms. All of them are
// always on: Observe is a few atomic adds, so there is no measurement mode
// to enable and every run can answer "what was the p99 commit latency".
// Subsystem histograms (WAL append/force, GC pauses) live with their
// subsystems; this struct covers the latencies only the core can see —
// whole-commit latency including the park on the log force, lock waits,
// and recovery phase times.
type heapMetrics struct {
	txCommit     obs.Histogram // Tx.Commit wall time (tracking + force + finish)
	txAbort      obs.Histogram // Tx.Abort / failed-commit rollback wall time
	txConflict   obs.Histogram // commits rejected by stability-tracking conflicts
	lockWait     obs.Histogram // contended lock-acquire wait time
	latchStop    obs.Histogram // wait to stop the heap (exclusive latch acquire)
	recReopen    obs.Histogram // Open's device opens, before the heap existed
	recAnalysis  obs.Histogram // recovery analysis pass wall time
	recRedo      obs.Histogram // recovery redo pass wall time
	recUndo      obs.Histogram // recovery undo pass wall time
	recEvacuate  obs.Histogram // post-recovery evacuation of recovered newly stable objects
	nurseryRem   obs.Counter   // generational write-barrier hits (aged slot → nursery)
	satbGray     obs.Counter   // SATB deletion-barrier hits during concurrent scans
	relocBatches obs.Counter   // batches the collectors handed to relocate
	relocMoves   obs.Counter   // moves in them
}

// Metrics returns the unified observability snapshot: every subsystem's
// counters and latency histograms under one namespace. Names follow one
// scheme: a subsystem prefix (tx_, gc_, vgc_, cache_, wal_, lock_,
// checkpoint_, track_, recovery_, obs_), counters end in _total,
// nanosecond histograms in _ns; the one unitless histogram is
// wal_force_batch (callers released per log force). The histograms are
// always on — recording is a handful of atomic adds — so any run can
// report latency distributions without a measurement mode. The snapshot
// marshals to JSON and renders Prometheus text via WritePrometheus.
func (hp *Heap) Metrics() obs.Snapshot {
	// Shared latch: subsystem stats that are not internally synchronized
	// (collector counters, tracker counters) only mutate in exclusive
	// sections, which this excludes.
	excl := hp.rlock()
	defer hp.runlock(excl)
	s := obs.NewSnapshot()

	ts := hp.txm.Stats()
	s.SetCounter("tx_begun_total", ts.Begun)
	s.SetCounter("tx_committed_total", ts.Committed)
	s.SetCounter("tx_aborted_total", ts.Aborted)
	s.SetCounter("tx_updates_total", ts.Updates)
	s.SetCounter("tx_volatile_writes_total", ts.VolWrites)
	s.SetCounter("tx_clrs_total", ts.CLRs)
	s.SetCounter("tx_utt_probes_total", ts.UTTProbes)

	gs := hp.sgc.Stats()
	s.SetCounter("gc_collections_total", int64(gs.Collections))
	s.SetCounter("gc_copied_objects_total", gs.CopiedObjs)
	s.SetCounter("gc_copied_words_total", gs.CopiedWords)
	s.SetCounter("gc_scanned_pages_total", gs.ScannedPages)
	s.SetCounter("gc_scanned_slots_total", gs.ScannedSlots)
	s.SetCounter("gc_filler_words_total", gs.FillerWords)
	s.SetCounter("gc_end_flushes_total", gs.GCEndFlushes)
	s.SetCounter("gc_relocate_batches_total", int64(hp.met.relocBatches.Load()))
	s.SetCounter("gc_relocate_moves_total", int64(hp.met.relocMoves.Load()))
	s.SetHist("gc_flip_ns", gs.Flip)
	s.SetHist("gc_step_ns", gs.Step)
	s.SetHist("gc_trap_ns", gs.Trap)
	if hp.cfg.StableGC == gc.Concurrent {
		s.SetCounter("gc_conc_collections_total", int64(gs.ConcCollections))
		s.SetCounter("gc_conc_quanta_total", gs.ConcQuanta)
		s.SetCounter("gc_conc_transports_total", gs.ConcTransports)
		s.SetCounter("gc_conc_satb_gray_total", int64(hp.met.satbGray.Load()))
		s.SetHist("gc_conc_quantum_ns", gs.Quantum)
	}

	if hp.vgc != nil {
		vs := hp.vgc.Stats()
		s.SetCounter("vgc_collections_total", int64(vs.Collections))
		s.SetCounter("vgc_copied_objects_total", vs.CopiedObjs)
		s.SetCounter("vgc_moved_objects_total", vs.MovedObjs)
		s.SetCounter("vgc_moved_words_total", vs.MovedWords)
		s.SetHist("vgc_pause_ns", vs.Pause)
		if hp.nurLo != 0 {
			s.SetCounter("vgc_nursery_minor_total", int64(vs.MinorCollections))
			s.SetCounter("vgc_nursery_alloc_objects_total", vs.NurseryAllocObjs)
			s.SetCounter("vgc_nursery_alloc_words_total", vs.NurseryAllocWords)
			s.SetCounter("vgc_nursery_promoted_objects_total", vs.PromotedObjs)
			s.SetCounter("vgc_nursery_promoted_words_total", vs.PromotedWords)
			s.SetCounter("vgc_nursery_barrier_hits_total", int64(hp.met.nurseryRem.Load()))
			s.SetHist("vgc_minor_pause_ns", vs.MinorPause)
		}
		if hp.cfg.ConcurrentVGC {
			s.SetCounter("vgc_conc_collections_total", int64(vs.ConcCollections))
			s.SetCounter("vgc_conc_quanta_total", vs.ConcQuanta)
			s.SetCounter("vgc_conc_transports_total", vs.ConcTransports)
			s.SetCounter("vgc_conc_satb_gray_total", int64(hp.met.satbGray.Load()))
			s.SetHist("vgc_conc_flip_pause_ns", vs.FlipPause)
			s.SetHist("vgc_conc_quantum_ns", vs.QuantumPause)
		}
	}

	ms := hp.mem.Stats()
	s.SetCounter("cache_hits_total", ms.Hits)
	s.SetCounter("cache_misses_total", ms.Misses())
	s.SetCounter("cache_fetches_total", ms.Fetches)
	s.SetCounter("cache_flushes_total", ms.Flushes)
	s.SetCounter("cache_evictions_total", ms.Evictions)
	s.SetCounter("cache_fresh_pages_total", ms.FreshPages)
	s.SetCounter("gc_barrier_traps_total", ms.Traps)
	s.SetCounter("wal_constraint_forces_total", ms.LogForces)

	ls := hp.logDev.Stats()
	s.SetCounter("wal_appends_total", ls.Appends)
	s.SetCounter("wal_forces_total", ls.Forces)
	s.SetCounter("wal_bytes_appended_total", ls.BytesAppended)
	s.SetCounter("wal_bytes_stable_total", ls.BytesStable)
	s.SetHist("wal_append_ns", hp.log.AppendHist())
	s.SetHist("wal_force_ns", hp.log.ForceHist())
	s.SetHist("wal_force_wait_ns", hp.log.ForceWaitHist())
	s.SetHist("wal_force_batch", hp.log.ForceBatchHist())
	s.SetHist("wal_mutex_wait_ns", hp.log.MutexWaitHist())
	s.SetHist("wal_commit_join_wait_ns", hp.log.JoinWaitHist())
	s.SetCounter("wal_commit_join_timeouts_total", int64(hp.log.JoinTimeouts()))

	ks := hp.locks.Stats()
	s.SetCounter("lock_acquires_total", ks.Acquires)
	s.SetCounter("lock_conflicts_total", ks.Conflicts)
	s.SetCounter("lock_timeouts_total", ks.Timeouts)
	s.SetCounter("lock_deadlock_aborts_total", ks.DeadlockAborts)
	s.SetCounter("lock_rekeys_total", ks.Rekeys)

	cs := hp.ckpt.Stats()
	s.SetCounter("checkpoint_taken_total", cs.Taken)
	s.SetCounter("checkpoint_promoted_total", cs.Promoted)
	s.SetCounter("checkpoint_cleaned_pages_total", cs.Cleaned)

	if hp.track != nil {
		rs := hp.track.Stats()
		s.SetCounter("track_batches_total", rs.Batches)
		s.SetCounter("track_objects_total", rs.Objects)
		s.SetCounter("track_words_total", rs.Words)
	}

	s.SetHist("tx_commit_ns", hp.met.txCommit.Snapshot())
	s.SetHist("tx_abort_ns", hp.met.txAbort.Snapshot())
	s.SetHist("tx_conflict_ns", hp.met.txConflict.Snapshot())
	s.SetHist("lock_wait_ns", hp.met.lockWait.Snapshot())
	s.SetHist("latch_stop_wait_ns", hp.met.latchStop.Snapshot())
	lcommit, labort := hp.txm.LifetimeHists()
	s.SetHist("tx_lifetime_commit_ns", lcommit)
	s.SetHist("tx_lifetime_abort_ns", labort)

	if hp.lastRecovery != nil {
		s.SetHist("recovery_reopen_ns", hp.met.recReopen.Snapshot())
		s.SetHist("recovery_analysis_ns", hp.met.recAnalysis.Snapshot())
		s.SetHist("recovery_redo_ns", hp.met.recRedo.Snapshot())
		s.SetHist("recovery_undo_ns", hp.met.recUndo.Snapshot())
		s.SetCounter("recovery_redo_scanned_total", int64(hp.lastRecovery.RedoScanned))
		s.SetCounter("recovery_redo_applied_total", int64(hp.lastRecovery.RedoApplied))
		s.SetHist("recovery_evacuate_ns", hp.met.recEvacuate.Snapshot())
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
	// The page cache's counters are the vm pool's cache_ counters above.
	barriers := hp.disk.Stats().Barriers
	s.SetCounter("filestore_log_fsyncs_total", hp.logDev.Stats().Syncs)
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
