package core

import (
	"stableheap/internal/obs"
	"stableheap/internal/storage"
)

// Flight-recorder plumbing: the black-box ring and its journal are built
// in build() (core.go); this file holds the crash-path flusher, the
// watchdog rule set, and the read-side accessors the tools and the chaos
// harness use.

// flushOnPanic is deferred at the top of the operations that touch
// devices (Alloc, Commit, Prepare, Abort): an injected device fault
// unwinds as a typed panic, and the recorder's last events — the fault,
// the in-flight transaction — must reach the journal before the panic
// reaches the caller. The journal takes no heap latches (inner deferred
// unlocks have already run by the time a deferred caller-frame function
// executes), so flushing here cannot deadlock.
func (hp *Heap) flushOnPanic() {
	if r := recover(); r != nil {
		hp.bb.Record(obs.EvCrash, 0, 1, 0)
		hp.journal.Flush()
		panic(r)
	}
}

// startWatchdog builds and starts the stall watchdog when configured.
// Called once the heap is fully assembled (after format or recovery) and
// every metric is registered: the watchdog goroutine calls Metrics.
func (hp *Heap) startWatchdog() {
	if hp.cfg.WatchdogInterval <= 0 || hp.wd != nil {
		return
	}
	rules := []obs.Rule{
		// A mutator held off the heap far beyond the historical stop-latch
		// distribution: the "one stall you will be asked about" detector.
		obs.StallRule("latch-stop-stall", "latch_stop_wait_ns", 8),
		obs.StallRule("commit-stall", "tx_commit_ns", 8),
	}
	if hp.nurLo != 0 {
		// Minor collections running away within one tick means survivors
		// are thrashing promotion instead of dying in the nursery.
		rules = append(rules, obs.RateRule("nursery-runaway", "vgc_nursery_minor_total", 100))
	}
	// Half a window's commit join waits ending at their bound means the
	// siblings the leaders wait for do not come (an update transaction left
	// open, say): each commit then waits a force on top of its own.
	rules = append(rules, obs.ConvoyRule("commit-force-convoy",
		"wal_commit_join_timeouts_total", "wal_commit_join_wait_ns"))
	hp.wd = obs.NewWatchdog(hp.cfg.WatchdogInterval, hp.Metrics, hp.bb,
		hp.journal.Flush, rules)
	hp.wd.Start()
}

// FlightRecorder returns the black-box ring (nil when disabled). The
// chaos harness hands it to the fault injector so injected faults land in
// the timeline.
func (hp *Heap) FlightRecorder() *obs.BlackBox { return hp.bb }

// FlightDevice returns the journal's log device, private to this heap —
// readable after Crash (the device is never fault-wrapped: it models
// battery-backed recorder hardware), which is how the pre-crash timeline
// is recovered. A heap opened after the crash journals to a device of its
// own; a harness joins the devices' frames for a multi-boot history.
func (hp *Heap) FlightDevice() *storage.Log { return hp.journal.Device() }

// FlightEvents snapshots the live ring in sequence order.
func (hp *Heap) FlightEvents() []obs.Event { return hp.bb.Events() }

// FlightDump encodes the journal's newest run as a standalone dump file
// for shstat -decode (nil when the recorder is off or nothing was flushed).
func (hp *Heap) FlightDump() []byte {
	evs, boot, err := obs.ReadLatest(hp.FlightDevice())
	if err != nil || len(evs) == 0 {
		return nil
	}
	return obs.EncodeDump(boot, evs)
}
