package core

import "stableheap/internal/obs"

// Flight-recorder plumbing: the black-box ring is built in build()
// (core.go) and marked on a fail-stop fault by noteFault (latch.go); this
// file holds the watchdog rule set and the read-side accessors the tools
// and the chaos harness use.

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
	hp.wd = obs.NewWatchdog(hp.cfg.WatchdogInterval, hp.Metrics, hp.bb, rules)
	hp.wd.Start()
}

// FlightRecorder returns the black-box ring (nil when disabled). The
// chaos harness hands it to the fault injector so injected faults land in
// the timeline.
func (hp *Heap) FlightRecorder() *obs.BlackBox { return hp.bb }

// FlightEvents snapshots the live ring in sequence order.
func (hp *Heap) FlightEvents() []obs.Event { return hp.bb.Events() }

// FlightDump encodes the live ring as a standalone dump file for shstat
// -decode, one boot (nil when the recorder is off). Crash keeps the ring,
// so a crashed heap's dump ends at its crash marker.
func (hp *Heap) FlightDump() []byte {
	if hp.bb == nil {
		return nil
	}
	return obs.EncodeDump(hp.bb.Boot(), hp.bb.Events())
}
