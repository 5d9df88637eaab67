package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
)

// metric is one reported number. N is the number of samples behind a
// percentile, a median or a mean, where there is one.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
func (m metricSet) setN(name, unit string, v float64, n int) {
	m[name] = metric{Value: v, Unit: unit, N: n}
}

// ratio is a/b, and 0 when b is 0 (the layer did no such work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// delta is the change of the heap's own counters over an interval.
type delta struct {
	c                  map[string]int64
	txB, gcB, trB, bkB int64
}

func diff(after, before counters) delta {
	d := delta{c: make(map[string]int64), txB: after.txB - before.txB, gcB: after.gcB - before.gcB,
		trB: after.trB - before.trB, bkB: after.bkB - before.bkB}
	for name, v := range after.m.Counters {
		d.c[name] = v - before.m.Counters[name]
	}
	return d
}

func (d *delta) add(o delta) {
	if d.c == nil {
		d.c = make(map[string]int64)
	}
	for name, v := range o.c {
		d.c[name] += v
	}
	d.txB += o.txB
	d.gcB += o.gcB
	d.trB += o.trB
	d.bkB += o.bkB
}

func (d delta) n(name string) float64 { return float64(d.c[name]) }

func (d delta) commits() float64 { return d.n("tx_committed_total") }
func (d delta) logBytesPerCommit() float64 {
	return ratio(d.n("wal_bytes_appended_total"), d.commits())
}
func (d delta) fsyncs() float64 {
	return d.n("filestore_log_fsyncs_total") + d.n("filestore_page_fsyncs_total")
}

// layerCounters derives the per-layer metrics that come from the heap's
// own counters. ops is the number of client operations in the interval.
func layerCounters(ms metricSet, d delta, ops float64) {
	commits := d.commits()
	ms.set("lock.acquires_per_op", "1/op", ratio(d.n("lock_acquires_total"), ops))
	ms.set("lock.conflict_ratio", "ratio", ratio(d.n("lock_conflicts_total"), d.n("lock_acquires_total")))
	ms.set("lock.deadlock_aborts", "count", d.n("lock_deadlock_aborts_total"))

	ms.set("wal.bytes_per_commit", "B", d.logBytesPerCommit())
	ms.set("wal.appends_per_commit", "1/tx", ratio(d.n("wal_appends_total"), commits))
	ms.set("wal.forces_per_commit", "1/tx", ratio(d.n("wal_forces_total"), commits))
	classes := float64(d.txB + d.gcB + d.trB + d.bkB)
	ms.set("wal.bytes_tx_share", "ratio", ratio(float64(d.txB), classes))
	ms.set("wal.bytes_gc_share", "ratio", ratio(float64(d.gcB), classes))
	ms.set("wal.bytes_track_share", "ratio", ratio(float64(d.trB), classes))

	ms.set("filestore.log_fsyncs_per_commit", "1/tx", ratio(d.n("filestore_log_fsyncs_total"), commits))
	fsLookups := d.n("filestore_cache_hits_total") + d.n("filestore_cache_misses_total")
	ms.set("filestore.cache_lookups_per_op", "1/op", ratio(fsLookups, ops))
	ms.set("filestore.cache_hit_ratio", "ratio", ratio(d.n("filestore_cache_hits_total"), fsLookups))
	ms.set("filestore.evictions_per_op", "1/op", ratio(d.n("filestore_cache_evictions_total"), ops))
	ms.set("filestore.writebacks", "count", d.n("filestore_writebacks_total"))
	ms.set("filestore.barriers", "count", d.n("filestore_barriers_total"))

	ms.set("vm.hit_ratio", "ratio", ratio(d.n("cache_hits_total"), d.n("cache_hits_total")+d.n("cache_misses_total")))
	ms.set("vm.fetches_per_op", "1/op", ratio(d.n("cache_fetches_total"), ops))
	ms.set("vm.evictions_per_op", "1/op", ratio(d.n("cache_evictions_total"), ops))
	ms.set("vm.flushes", "count", d.n("cache_flushes_total"))

	collections := d.n("gc_collections_total")
	ms.set("gc.stable_collections", "count", collections)
	ms.set("gc.copied_words_per_collection", "words", ratio(d.n("gc_copied_words_total"), collections))
	ms.set("gc.log_bytes_per_live_byte", "B/B", ratio(float64(d.gcB), d.n("gc_copied_words_total")*8))
	minors := d.n("vgc_nursery_minor_total")
	ms.set("gc.minors", "count", minors)
	ms.set("gc.promoted_words_per_minor", "words", ratio(d.n("vgc_nursery_promoted_words_total"), minors))
	ms.set("gc.barrier_traps", "count", d.n("gc_barrier_traps_total"))

	ms.set("stability.tracked_words_per_commit", "words/tx", ratio(d.n("track_words_total"), commits))
	ms.set("stability.batches_per_commit", "1/tx", ratio(d.n("track_batches_total"), commits))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// layerSpans derives the per-layer metrics that come from the spans the
// driver recorded around its calls into the heap.
func layerSpans(ms metricSet, st spanStats) {
	d := &st.durs
	ms.setN("tx.begin_ns", "ns", mean(d[spTxBegin]), len(d[spTxBegin]))
	ms.setN("tx.read_ns_per_call", "ns", mean(d[spTxRead]), len(d[spTxRead]))
	ms.setN("tx.write_ns_per_call", "ns", mean(d[spTxWrite]), len(d[spTxWrite]))
	ms.setN("tx.alloc_ns_per_call", "ns", mean(d[spTxAlloc]), len(d[spTxAlloc]))
	ms.setN("tx.commit_us_p50", "us", percentile(d[spTxCommit], 50)/1e3, len(d[spTxCommit]))
	ms.setN("tx.commit_us_p99", "us", percentile(d[spTxCommit], 99)/1e3, len(d[spTxCommit]))
	ms.set("tx.commit_share", "ratio", ratio(st.updCommt, st.updRoot))
	ms.setN("core.checkpoint_ms_p50", "ms", percentile(d[spCheckpoint], 50)/1e6, len(d[spCheckpoint]))
	ms.setN("core.checkpoint_ms_max", "ms", percentile(d[spCheckpoint], 100)/1e6, len(d[spCheckpoint]))
	ms.setN("wal.truncate_ms_p50", "ms", percentile(d[spTruncate], 50)/1e6, len(d[spTruncate]))
	ms.setN("core.open_dir_ms", "ms", percentile(d[spOpenDir], 50)/1e6, len(d[spOpenDir]))
	ms.setN("core.close_ms", "ms", percentile(d[spClose], 50)/1e6, len(d[spClose]))
	ms.set("workload.self_share", "ratio", ratio(st.selfNs, st.rootNs))
}

// medianOf is the median of one figure over a set of timed recoveries.
func medianOf(rs []recSample, f func(recSample) float64) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return median(xs)
}

func recoverMs(rs []recSample) float64 {
	return medianOf(rs, func(r recSample) float64 { return r.totalMs })
}

// layerRecovery reports the medians of a set of timed recoveries under
// prefix ("recovery." or "recovery.small_").
func layerRecovery(ms metricSet, prefix string, rs []recSample) {
	n := len(rs)
	ms.setN(prefix+"analysis_ms", "ms", medianOf(rs, func(r recSample) float64 { return r.analysisMs }), n)
	ms.setN(prefix+"redo_ms", "ms", medianOf(rs, func(r recSample) float64 { return r.redoMs }), n)
	ms.setN(prefix+"undo_ms", "ms", medianOf(rs, func(r recSample) float64 { return r.undoMs }), n)
	ms.setN(prefix+"reopen_ms", "ms", medianOf(rs, recSample.reopenMs), n)
	ms.setN(prefix+"first_commit_ms", "ms", medianOf(rs, func(r recSample) float64 { return r.firstCommit }), n)
	ms.setN(prefix+"redo_workers", "count", medianOf(rs, func(r recSample) float64 { return float64(r.workers) }), n)
	ms.setN(prefix+"redo_scanned", "count", medianOf(rs, func(r recSample) float64 { return float64(r.scanned) }), n)
	ms.setN(prefix+"redo_applied", "count", medianOf(rs, func(r recSample) float64 { return float64(r.applied) }), n)
}

// layerProc reports the process's peak resident set and CPU time so far.
func layerProc(ms metricSet) {
	var peakMB float64
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				kb, _ := strconv.ParseFloat(f[1], 64)
				peakMB = kb / 1024
			}
		}
	}
	ms.set("proc.rss_peak_mb", "MB", peakMB)
	ms.set("proc.cpu_s", "s", processCPU())
}

// processCPU is the CPU time the process has used so far, user and system,
// in seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}

// dirBytes is the space a heap directory occupies, in allocated blocks
// (the slot file is sparse).
func dirBytes(dir string) (int64, error) { return allocated(dir, true) }

func allocated(path string, isDir bool) (int64, error) {
	if !isDir {
		var st syscall.Stat_t
		if err := syscall.Stat(path, &st); err != nil {
			return 0, err
		}
		return st.Blocks * 512, nil
	}
	entries, err := os.ReadDir(path)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		n, err := allocated(filepath.Join(path, e.Name()), e.IsDir())
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}
