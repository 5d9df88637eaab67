package obs

import (
	"sync"
	"testing"
	"time"
)

// snapWith builds a snapshot holding one histogram and one counter.
func snapWith(h HistSnapshot, counter string, v int64) Snapshot {
	s := NewSnapshot()
	s.SetHist("h", h)
	if counter != "" {
		s.SetCounter(counter, v)
	}
	return s
}

func TestStallRule(t *testing.T) {
	var base Histogram
	for i := 0; i < 200; i++ {
		base.Observe(1000) // tight distribution: p99 ≈ 1µs bucket
	}
	prev := snapWith(base.Snapshot(), "", 0)
	r := StallRule("stall", "h", 8)

	// A window observation far beyond 8×p99 trips.
	base.Observe(10_000_000)
	cur := snapWith(base.Snapshot(), "", 0)
	if trip, detail := r.Check(prev, cur); !trip || detail == 0 {
		t.Errorf("10ms outlier on a 1µs distribution did not trip (trip=%v detail=%d)", trip, detail)
	}
	// An empty window does not.
	if trip, _ := r.Check(cur, cur); trip {
		t.Error("empty window tripped")
	}
	// Below the arming count nothing trips.
	var young Histogram
	young.Observe(1000)
	p := snapWith(young.Snapshot(), "", 0)
	young.Observe(10_000_000)
	c := snapWith(young.Snapshot(), "", 0)
	if trip, _ := r.Check(p, c); trip {
		t.Error("rule tripped before arming count")
	}
}

func TestRateRule(t *testing.T) {
	rr := RateRule("rate", "c", 10)
	if trip, d := rr.Check(snapWith(HistSnapshot{}, "c", 5), snapWith(HistSnapshot{}, "c", 40)); !trip || d != 35 {
		t.Errorf("delta 35 over limit 10: trip=%v d=%d", trip, d)
	}
	if trip, _ := rr.Check(snapWith(HistSnapshot{}, "c", 5), snapWith(HistSnapshot{}, "c", 15)); trip {
		t.Error("delta at the limit tripped")
	}
}

func TestConvoyRule(t *testing.T) {
	r := ConvoyRule("convoy", "c", "h")
	var h Histogram
	h.Observe(1000)
	prev := snapWith(h.Snapshot(), "c", 1)
	window := func(waits int, timeouts int64) Snapshot {
		for i := 0; i < waits; i++ {
			h.Observe(1000)
		}
		return snapWith(h.Snapshot(), "c", prev.Counters["c"]+timeouts)
	}
	// Four waits in one window, all at their bound: convoy.
	cur := window(4, 4)
	if trip, d := r.Check(prev, cur); !trip || d != 100 {
		t.Errorf("four timed-out waits: trip=%v d=%d", trip, d)
	}
	// A hundred waits, a few timed out: sharing works.
	prev = cur
	if trip, _ := r.Check(prev, window(100, 3)); trip {
		t.Error("3 timeouts in 100 waits tripped")
	}
	// Fewer than four waits say nothing.
	prev = snapWith(h.Snapshot(), "c", 0)
	if trip, _ := r.Check(prev, window(3, 3)); trip {
		t.Error("three waits tripped")
	}
}

// TestWatchdogLoop runs the real ticker goroutine against a synthetic
// snapshot source that goes anomalous after the first tick, and verifies
// the trip lands in both the counter and the flight recorder.
func TestWatchdogLoop(t *testing.T) {
	var mu sync.Mutex
	v := int64(0)
	snap := func() Snapshot {
		mu.Lock()
		defer mu.Unlock()
		return snapWith(HistSnapshot{}, "c", v)
	}
	bb := NewBlackBox(32)
	w := NewWatchdog(time.Millisecond, snap, bb, []Rule{
		RateRule("runaway", "c", 10),
	})
	if w == nil {
		t.Fatal("watchdog not built")
	}
	w.Start()
	// Grow the counter fast enough that any tick window sees a delta far
	// over the limit (the initial snapshot races with this loop, so one
	// bump would not be guaranteed to land inside a window).
	deadline := time.Now().Add(2 * time.Second)
	for w.Trips() == 0 && time.Now().Before(deadline) {
		mu.Lock()
		v += 1000
		mu.Unlock()
		time.Sleep(time.Millisecond)
	}
	w.Stop()
	if w.Trips() == 0 {
		t.Fatal("watchdog never tripped")
	}
	found := false
	for _, ev := range bb.Events() {
		if ev.Kind == EvWatchdog && ev.A == WdRate {
			found = true
		}
	}
	if !found {
		t.Error("trip not recorded in the flight recorder")
	}
}

func TestWatchdogDisabled(t *testing.T) {
	if NewWatchdog(0, func() Snapshot { return NewSnapshot() }, nil, []Rule{RateRule("r", "c", 1)}) != nil {
		t.Error("zero interval built a watchdog")
	}
	if NewWatchdog(time.Second, nil, nil, []Rule{RateRule("r", "c", 1)}) != nil {
		t.Error("nil snap built a watchdog")
	}
	if NewWatchdog(time.Second, func() Snapshot { return NewSnapshot() }, nil, nil) != nil {
		t.Error("no rules built a watchdog")
	}
	var w *Watchdog
	w.Start()
	w.Stop()
	if w.Trips() != 0 {
		t.Error("nil watchdog has trips")
	}
}
