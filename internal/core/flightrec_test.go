package core

import (
	"testing"
	"time"

	"stableheap/internal/obs"
)

func TestFlightRecorderEndToEnd(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FlightRecorder = true
	hp := openMem(cfg)
	obsWorkload(t, hp)

	evs := hp.FlightEvents()
	kinds := map[obs.EventKind]int{}
	for _, ev := range evs {
		kinds[ev.Kind]++
	}
	for _, want := range []obs.EventKind{obs.EvTxBegin, obs.EvTxCommit, obs.EvTxAbort, obs.EvGCFlip, obs.EvVGCFlip, obs.EvWALForce} {
		if kinds[want] == 0 {
			t.Errorf("live ring has no %s events after a mixed workload", want)
		}
	}
	m := hp.Metrics()
	if m.Counter("obs_blackbox_events_total") == 0 {
		t.Error("obs_blackbox_events_total is zero")
	}

	// Crash; the journal survives and replays the timeline including the
	// crash marker, then the recovered heap journals its own boot to a
	// device of its own.
	disk, logDev := hp.Crash()
	evs, _, err := obs.ReadLatest(hp.FlightDevice())
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 || evs[len(evs)-1].Kind != obs.EvCrash {
		t.Fatalf("journal does not end with the crash marker (%d events)", len(evs))
	}

	h2, err := reopen(cfg, disk, logDev)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	evs, _, err = obs.ReadLatest(h2.FlightDevice())
	if err != nil {
		t.Fatal(err)
	}
	recovered := false
	for _, ev := range evs {
		if ev.Kind == obs.EvRecovery {
			recovered = true
		}
	}
	if !recovered {
		t.Fatalf("recovered boot carries no %s marker: %v", obs.EvRecovery, evs)
	}
	if dump := h2.FlightDump(); len(dump) == 0 {
		t.Error("FlightDump is empty after recovery")
	} else if _, dumped, err := obs.DecodeDump(dump); err != nil || len(dumped) == 0 {
		t.Errorf("FlightDump does not round-trip: %v (%d events)", err, len(dumped))
	}
}

func TestFlightRecorderDisabled(t *testing.T) {
	hp := openMem(DefaultConfig())
	defer hp.Close()
	obsWorkload(t, hp)
	if hp.FlightRecorder() != nil || hp.FlightEvents() != nil || hp.FlightDevice() != nil || hp.FlightDump() != nil {
		t.Error("flight recorder artifacts exist without Config.FlightRecorder")
	}
	if hp.Metrics().Counter("obs_blackbox_events_total") != 0 {
		t.Error("blackbox counter exposed with the recorder off")
	}
}

// TestWatchdogLifecycle opens a heap with the watchdog ticking fast,
// runs a workload, survives a crash/recover cycle (the watchdog restarts
// with the recovered heap), and closes cleanly — the regression target
// is a deadlock between the watchdog's shared-latch snapshots and the
// exclusive sections in Close/Crash.
func TestWatchdogLifecycle(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FlightRecorder = true
	cfg.WatchdogInterval = time.Millisecond
	hp := openMem(cfg)
	obsWorkload(t, hp)
	time.Sleep(5 * time.Millisecond) // a few ticks
	disk, logDev := hp.Crash()
	h2, err := reopen(cfg, disk, logDev)
	if err != nil {
		t.Fatal(err)
	}
	obsWorkload(t, h2)
	time.Sleep(5 * time.Millisecond)
	// The trips counter is exposed (usually zero on a healthy run).
	if _, ok := h2.Metrics().Counters["obs_watchdog_trips_total"]; !ok {
		t.Error("watchdog running but obs_watchdog_trips_total not exposed")
	}
	h2.Close()
}
