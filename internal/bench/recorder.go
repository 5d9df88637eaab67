package bench

import (
	"fmt"
	"time"

	"stableheap/internal/obs"
)

// recorderMeasure runs the disjoint scaling kernel (scaling.go) with the flight
// recorder (and, when withWatchdog, the stall watchdog) toggled, and
// returns the best committed-transaction rate over reps runs. Best-of
// damps scheduler noise: the claim is about the recorder's intrinsic
// cost, not about run-to-run variance.
func recorderMeasure(recorder bool, g, reps int, duration time.Duration) float64 {
	best := 0.0
	for i := 0; i < reps; i++ {
		cfg := scalingConfig()
		if recorder {
			cfg.FlightRecorder = true
			cfg.WatchdogInterval = 10 * time.Millisecond
		}
		committed, _ := scalingMeasureCfg(cfg, g, duration)
		if rate := float64(committed) / duration.Seconds(); rate > best {
			best = rate
		}
	}
	return best
}

// E20Recorder measures the flight recorder's overhead on the hot path:
// the disjoint-transaction throughput with the recorder (ring events
// on every begin/commit/force plus the ticking watchdog) against the
// identical workload without it. The paper's observability bargain is
// that a crash-surviving recording must cost nothing worth measuring;
// the acceptance bound is <2% on this workload (which is force-bound by
// design, as any realistic durable commit path is — the recorder's few
// atomic stores disappear under a 250µs force).
func E20Recorder() Table {
	t := Table{
		ID:     "E20",
		Title:  "flight recorder + watchdog overhead on the hot transaction path",
		Claim:  "recording every tx/GC/WAL event into the crash-surviving ring costs <2% disjoint-commit throughput",
		Header: []string{"goroutines", "tx/sec (recorder off)", "tx/sec (recorder on)", "overhead"},
	}
	const (
		duration = 250 * time.Millisecond
		reps     = 3
	)
	for _, g := range []int{1, 4, 8} {
		off := recorderMeasure(false, g, reps, duration)
		on := recorderMeasure(true, g, reps, duration)
		overhead := 0.0
		if off > 0 {
			overhead = (off - on) / off * 100
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", g),
			fmt.Sprintf("%.0f", off),
			fmt.Sprintf("%.0f", on),
			fmt.Sprintf("%+.1f%%", overhead),
		})
	}
	t.Notes = append(t.Notes,
		"workload: disjoint scaling kernel (private counters, no conflicts), best of 3 runs per cell",
		fmt.Sprintf("recorder on = %d-slot ring + journal + watchdog ticking at 10ms; recorder off = the seed configuration", obs.BlackBoxEvents),
		"negative overhead is measurement noise: both sides are bound by the simulated 250µs commit force")
	return t
}
