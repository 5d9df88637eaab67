package main

// This file is the benchmark's contract in Go: the workloads, the gated
// end-to-end metrics with their bounds, and the per-layer metrics.
// BENCHMARK.json at the root of the repository says the same thing to the
// acceptance driver; defs_test.go fails when the two disagree.

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"bank-hot", "4096-account transfers that fit every cache: pure commit path (lock, latch, two logical records, one fdatasync per tx); collectors, vm misses and the page file stay idle"},
	{"oo7-churn", "60% ReplaceComposite / 30% UpdateT2 / 10% reads on a 5393-object module in a 96Ki-word stable area: nursery minors, stability tracking, logged stable collections, checkpoints"},
	{"oo7-cold", "85% read-one-assembly / 15% UpdateT2 on a 21537-object module ten times both 128-page caches: vm miss, filestore pread, eviction and dirty write-back beside the reads; no collection"},
	{"crash-recover", "same burst then a mid-collection crash on two heaps whose live data differ 16x: RecoverDir to first commit is timed and every acknowledged balance is checked against the driver's model"},
}

// metricDef names one metric of BENCHMARK.json. Bound is the share of the
// parent's median by which an end-to-end metric may worsen. Floor, in the
// metric's unit, is the absolute change below which compare does not call
// a pair regressed whatever the share: BENCHMARK.json has no key for it.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Floor  float64
}

// endToEndDefs are the gated metrics, with the bounds ISSUE 12 fixed.
// Every workload reports every one of them, because the acceptance driver
// compares each workload × metric pair. Besides setup_s only the fsyncs a
// commit costs repeat within their bound on the box the bounds were taken
// on: every wall-clock figure moved by a quarter or more between identical
// runs, space by a sixth and the log bytes a commit costs by up to 3.4 %
// on oo7-churn (README.md, "Why so little is gated"), so those are
// reported, ungated, in the end-to-end pass's table and as client.* and
// wal.bytes_per_commit in perLayerDefs.
var endToEndDefs = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.2},
	{Name: "fsyncs_per_commit", Unit: "1/tx", Better: "lower", Bound: 0.03},
}

// failedShareBound is the absolute amount by which failed/attempted may
// grow between two results before compare calls it a regression. The share
// is 0 at seed, so it cannot be a metric of BENCHMARK.json, whose bounds
// are shares of the parent's value.
const failedShareBound = 0.001

var perLayerDefs = []metricDef{
	{Name: "lock.acquire_release_ns", Unit: "ns", Better: "lower"},
	{Name: "lock.acquires_per_op", Unit: "1/op", Better: "lower"},
	{Name: "lock.conflict_ratio", Unit: "ratio", Better: "lower"},
	{Name: "lock.deadlock_aborts", Unit: "count", Better: "lower"},

	{Name: "tx.begin_ns", Unit: "ns", Better: "lower"},
	{Name: "tx.read_ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "tx.write_ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "tx.alloc_ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "tx.abort_ratio", Unit: "ratio", Better: "lower"},

	{Name: "tx.commit_us_p50", Unit: "us", Better: "lower"},
	{Name: "tx.commit_us_p99", Unit: "us", Better: "lower"},
	{Name: "tx.commit_share", Unit: "ratio", Better: "lower"},
	{Name: "core.checkpoint_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.checkpoint_ms_max", Unit: "ms", Better: "lower"},
	{Name: "core.close_ms", Unit: "ms", Better: "lower"},
	{Name: "core.open_dir_ms", Unit: "ms", Better: "lower"},

	{Name: "wal.append_ns", Unit: "ns", Better: "lower"},
	{Name: "wal.append_force_us_p50", Unit: "us", Better: "lower"},
	{Name: "wal.append_force_us_p99", Unit: "us", Better: "lower"},
	{Name: "wal.force_batch8_us_p50", Unit: "us", Better: "lower"},
	{Name: "wal.bytes_per_commit", Unit: "B", Better: "lower"},
	{Name: "wal.appends_per_commit", Unit: "1/tx", Better: "lower"},
	{Name: "wal.forces_per_commit", Unit: "1/tx", Better: "lower"},
	{Name: "wal.bytes_tx_share", Unit: "ratio", Better: "higher"},
	{Name: "wal.bytes_gc_share", Unit: "ratio", Better: "lower"},
	{Name: "wal.bytes_track_share", Unit: "ratio", Better: "lower"},
	{Name: "wal.truncate_ms_p50", Unit: "ms", Better: "lower"},

	{Name: "filestore.log_force_us_p50", Unit: "us", Better: "lower"},
	{Name: "filestore.log_force_us_p99", Unit: "us", Better: "lower"},
	{Name: "filestore.log_fsyncs_per_commit", Unit: "1/tx", Better: "lower"},
	{Name: "env.fdatasync_us_p50", Unit: "us", Better: "lower"},

	{Name: "filestore.page_read_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "filestore.page_read_miss_us", Unit: "us", Better: "lower"},
	{Name: "filestore.page_write_ns", Unit: "ns", Better: "lower"},
	{Name: "filestore.set_master_us", Unit: "us", Better: "lower"},
	{Name: "filestore.cache_lookups_per_op", Unit: "1/op", Better: "lower"},
	{Name: "filestore.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "filestore.evictions_per_op", Unit: "1/op", Better: "lower"},
	{Name: "filestore.writebacks", Unit: "count", Better: "lower"},
	{Name: "filestore.barriers", Unit: "count", Better: "lower"},

	{Name: "vm.read_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "vm.read_miss_us", Unit: "us", Better: "lower"},
	{Name: "vm.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "vm.fetches_per_op", Unit: "1/op", Better: "lower"},
	{Name: "vm.evictions_per_op", Unit: "1/op", Better: "lower"},
	{Name: "vm.flushes", Unit: "count", Better: "lower"},

	{Name: "gc.collect_stable_ms", Unit: "ms", Better: "lower"},
	{Name: "gc.collect_stable_log_bytes", Unit: "B", Better: "lower"},
	{Name: "gc.collect_volatile_ms", Unit: "ms", Better: "lower"},
	{Name: "gc.stable_collections", Unit: "count", Better: "lower"},
	{Name: "gc.copied_words_per_collection", Unit: "words", Better: "lower"},
	{Name: "gc.log_bytes_per_live_byte", Unit: "B/B", Better: "lower"},
	{Name: "gc.minors", Unit: "count", Better: "lower"},
	{Name: "gc.promoted_words_per_minor", Unit: "words", Better: "lower"},
	{Name: "gc.barrier_traps", Unit: "count", Better: "lower"},

	{Name: "stability.tracked_words_per_commit", Unit: "words/tx", Better: "lower"},
	{Name: "stability.batches_per_commit", Unit: "1/tx", Better: "lower"},

	{Name: "recovery.analysis_ms", Unit: "ms", Better: "lower"},
	{Name: "recovery.redo_ms", Unit: "ms", Better: "lower"},
	{Name: "recovery.undo_ms", Unit: "ms", Better: "lower"},
	{Name: "recovery.reopen_ms", Unit: "ms", Better: "lower"},
	{Name: "recovery.first_commit_ms", Unit: "ms", Better: "lower"},
	{Name: "recovery.redo_workers", Unit: "count", Better: "higher"},
	{Name: "recovery.redo_scanned", Unit: "count", Better: "lower"},
	{Name: "recovery.redo_applied", Unit: "count", Better: "lower"},
	{Name: "recovery.small_analysis_ms", Unit: "ms", Better: "lower"},
	{Name: "recovery.small_redo_ms", Unit: "ms", Better: "lower"},
	{Name: "recovery.small_undo_ms", Unit: "ms", Better: "lower"},
	{Name: "recovery.small_reopen_ms", Unit: "ms", Better: "lower"},
	{Name: "recovery.small_first_commit_ms", Unit: "ms", Better: "lower"},
	{Name: "recovery.small_redo_workers", Unit: "count", Better: "higher"},
	{Name: "recovery.small_redo_scanned", Unit: "count", Better: "lower"},
	{Name: "recovery.small_redo_applied", Unit: "count", Better: "lower"},
	{Name: "recovery.size_ratio", Unit: "ratio", Better: "lower"},

	{Name: "client.commit_tps", Unit: "tx/s", Better: "higher"},
	{Name: "client.commit_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.commit_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.commit_p999_us", Unit: "us", Better: "lower"},
	{Name: "client.read_tps", Unit: "ops/s", Better: "higher"},
	{Name: "client.read_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.read_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.max_gap_ms", Unit: "ms", Better: "lower"},
	{Name: "client.recover_ms", Unit: "ms", Better: "lower"},
	{Name: "client.space_amp", Unit: "ratio", Better: "lower"},
	{Name: "workload.self_share", Unit: "ratio", Better: "lower"},
	{Name: "obs.trace_overhead", Unit: "ratio", Better: "lower"},
	{Name: "proc.rss_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.cpu_s", Unit: "s", Better: "lower"},
}
