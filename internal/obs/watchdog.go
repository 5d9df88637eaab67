package obs

import (
	"context"
	"runtime/pprof"
	"sync"
	"time"
)

// The stall watchdog: a goroutine that snapshots the metrics on a ticker
// and runs anomaly rules over consecutive snapshot windows — mutator
// stalls far beyond the historical p99, counters growing at runaway
// rates, commit join waits that keep timing out (a convoy). A trip
// increments the obs_watchdog_trips_total counter and records an
// EvWatchdog event in the flight recorder, so the post-crash timeline
// shows not just what happened but that the system had already noticed
// something was wrong.

// Rule is one anomaly detector. Check sees the previous and current
// snapshots (so it can reason about the window between ticks via
// HistSnapshot.Delta or counter differences) and reports whether it
// tripped, with a kind-specific detail value for the event record.
type Rule struct {
	Name  string
	Code  uint64 // WdStall, WdRate, WdConvoy — carried in EvWatchdog
	Check func(prev, cur Snapshot) (trip bool, detail uint64)
}

// StallRule trips when a histogram's window max blows past factor× its
// cumulative p99 — the "one mutator stalled far beyond the historical
// distribution" detector. It needs a minimum cumulative count before it
// arms, so startup noise does not trip it.
func StallRule(name, hist string, factor uint64) Rule {
	return Rule{Name: name, Code: WdStall, Check: func(prev, cur Snapshot) (bool, uint64) {
		ph, ch := prev.Histograms[hist], cur.Histograms[hist]
		win := ch.Delta(ph)
		if win.Count == 0 || ch.Count < 100 {
			return false, 0
		}
		p99 := ch.Quantile(0.99)
		if p99 == 0 {
			return false, 0
		}
		if win.Max > factor*p99 {
			return true, win.Max
		}
		return false, 0
	}}
}

// RateRule trips when a counter grows by more than limit in one tick —
// e.g. nursery minor collections running away because survivors thrash
// promotion.
func RateRule(name, counter string, limit int64) Rule {
	return Rule{Name: name, Code: WdRate, Check: func(prev, cur Snapshot) (bool, uint64) {
		d := cur.Counters[counter] - prev.Counters[counter]
		if d > limit {
			return true, uint64(d)
		}
		return false, 0
	}}
}

// ConvoyRule trips when, in one window of at least four waits (the count
// of the waits histogram), at least half ended at their bound (the timeouts
// counter). For the commit join that means the siblings the leaders waited
// for did not come: every commit pays a force's worth of waiting on top of
// its own, and committers convoy behind the force instead of sharing it.
// A large batch is no sign of that — it is how many committers share. The
// detail is the window's timeout share in percent.
func ConvoyRule(name, timeouts, waits string) Rule {
	return Rule{Name: name, Code: WdConvoy, Check: func(prev, cur Snapshot) (bool, uint64) {
		n := cur.Histograms[waits].Count - prev.Histograms[waits].Count
		late := uint64(cur.Counters[timeouts] - prev.Counters[timeouts])
		if n >= 4 && 2*late >= n {
			return true, 100 * late / n
		}
		return false, 0
	}}
}

// Watchdog runs rules over metric snapshots on a ticker.
type Watchdog struct {
	interval time.Duration
	snap     func() Snapshot
	bb       *BlackBox
	flush    func() // optional: journal flush after each tick
	rules    []Rule
	trips    Counter
	stop     chan struct{}
	done     chan struct{}
	stopped  sync.Once
}

// NewWatchdog builds a watchdog; Start launches it. snap is typically the
// heap's Metrics method; flush may be nil.
func NewWatchdog(interval time.Duration, snap func() Snapshot, bb *BlackBox, flush func(), rules []Rule) *Watchdog {
	if interval <= 0 || snap == nil || len(rules) == 0 {
		return nil
	}
	return &Watchdog{
		interval: interval, snap: snap, bb: bb, flush: flush, rules: rules,
		stop: make(chan struct{}), done: make(chan struct{}),
	}
}

// Start launches the ticker goroutine. Nil-safe.
func (w *Watchdog) Start() {
	if w == nil {
		return
	}
	go w.run()
}

// Stop halts the watchdog and waits for its goroutine to exit. Nil-safe
// and idempotent: a heap stops it from Close and from Crash, and keeps the
// pointer, which a latch-free Metrics reads.
func (w *Watchdog) Stop() {
	if w == nil {
		return
	}
	w.stopped.Do(func() {
		close(w.stop)
		<-w.done
	})
}

// Trips returns how many rule trips have fired.
func (w *Watchdog) Trips() uint64 {
	if w == nil {
		return 0
	}
	return w.trips.Load()
}

func (w *Watchdog) run() {
	defer close(w.done)
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
		pprof.Labels("subsystem", "watchdog")))
	t := time.NewTicker(w.interval)
	defer t.Stop()
	prev := w.snap()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
		}
		cur := w.snap()
		for _, r := range w.rules {
			if trip, detail := r.Check(prev, cur); trip {
				w.trips.Inc()
				w.bb.Record(EvWatchdog, 0, r.Code, detail)
			}
		}
		prev = cur
		if w.flush != nil {
			w.flush()
		}
	}
}
