// Package obs is the stable heap's unified observability layer: lock-free
// atomic counters, log-bucketed latency histograms with mergeable
// snapshots, the registry that names each of them once (Registry), one
// in-memory event ring (the flight recorder) that also renders as Chrome
// trace_event JSON and as a binary dump, and a live exposition endpoint
// (Prometheus text + trace JSON over HTTP).
//
// The package depends only on the standard library, and is designed so the hot recording paths — Counter.Add,
// Histogram.Observe — are a handful of atomic adds with zero allocations,
// cheap enough to leave on in every configuration. The paper's claims are
// quantitative (bounded pauses, logging overhead, recovery time), and
// distributions, not averages, are what bound them: every pause and
// latency source records into a fixed-size power-of-two-bucketed histogram
// from which p50/p90/p99/max are read off at snapshot time.
//
// The flight recorder is the one opt-in piece: when a *BlackBox is wired
// in (Config.FlightRecorder at the heap level), spans and instants from
// the mutator, the collectors, the log and recovery land in a bounded
// lock-free ring (oldest events overwritten, counted) that an in-process
// Crash keeps, and export as JSON loadable in about://tracing.
package obs

import "sync/atomic"

// Counter is a lock-free monotonically increasing counter.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Smoothed is a lock-free exponentially weighted moving average of
// non-negative samples: the first sample sets it and each later one moves
// it an eighth of the way, so it follows a workload's shape over a few
// dozen events. It keeps eight fraction bits, and Load rounds to the
// nearest integer.
type Smoothed struct {
	v atomic.Int64 // the average ×256
}

// Observe folds one sample into the average.
func (s *Smoothed) Observe(x int64) { s.observe(x, false) }

// ObserveCapped folds in one sample, counting one above twice the average
// as twice the average: a latency average then stays near the typical
// event instead of chasing a heavy tail, and one outlier barely moves it.
func (s *Smoothed) ObserveCapped(x int64) { s.observe(x, true) }

func (s *Smoothed) observe(x int64, capped bool) {
	x <<= 8
	for {
		old, v := s.v.Load(), x
		if old != 0 {
			if capped {
				v = min(v, 2*old)
			}
			v = old + (v-old)/8
		}
		if s.v.CompareAndSwap(old, v) {
			return
		}
	}
}

// Load returns the average rounded to the nearest integer.
func (s *Smoothed) Load() int64 { return (s.v.Load() + 128) >> 8 }
