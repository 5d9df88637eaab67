package bench

import (
	"testing"
	"time"
)

// TestRecorderOverheadBound asserts the flight recorder stays cheap on
// the force-bound commit path. The documented claim (EXPERIMENTS.md E20)
// is <2% on unloaded hardware; the CI bound is far looser — 30% — so the
// test catches a recorder that accidentally became a lock or a syscall
// without flaking on noisy shared runners.
func TestRecorderOverheadBound(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped in -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts the ratio")
	}
	const (
		g        = 4
		reps     = 3
		duration = 150 * time.Millisecond
	)
	off := recorderMeasure(false, g, reps, duration)
	on := recorderMeasure(true, g, reps, duration)
	if off == 0 || on == 0 {
		t.Fatalf("degenerate measurement: off=%.0f on=%.0f tx/sec", off, on)
	}
	if overhead := (off - on) / off; overhead > 0.30 {
		t.Errorf("recorder overhead %.1f%% (off %.0f tx/sec, on %.0f tx/sec) — expected well under 30%%",
			overhead*100, off, on)
	}
}

// TestRecorderMeasureRecordsEvents sanity-checks the measured workload
// actually exercises the recorder (a misconfigured cfg would make the
// overhead comparison vacuous).
func TestRecorderMeasureRecordsEvents(t *testing.T) {
	cfg := scalingConfig()
	cfg.FlightRecorder = true
	committed, _ := scalingMeasureCfg(cfg, 2, 50*time.Millisecond)
	if committed == 0 {
		t.Fatal("no transactions committed under the recorder")
	}
}
