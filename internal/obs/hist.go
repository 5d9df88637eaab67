package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// NumBuckets is the number of histogram buckets. Bucket i holds the values
// whose bit length is i: bucket 0 holds only 0, and bucket i (i ≥ 1) holds
// [2^(i-1), 2^i). Sixty-five buckets cover the full uint64 range, so a
// histogram of nanoseconds spans single digits to centuries in one
// fixed-size array.
const NumBuckets = 65

// bucketOf maps a value to its bucket index.
func bucketOf(v uint64) int { return bits.Len64(v) }

// BucketUpper returns the largest value bucket i can hold.
func BucketUpper(i int) uint64 {
	if i >= 64 {
		return math.MaxUint64
	}
	return (uint64(1) << i) - 1
}

// Histogram is a lock-free log-bucketed histogram. The record path
// (Observe) is three atomic adds plus a compare-and-swap max update — no
// locks, no allocations — so it stays on in every configuration, including
// the WAL append hot path. Values are unitless; by convention the heap's
// latency histograms record nanoseconds and their names carry a _ns
// suffix.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	max     atomic.Uint64
	buckets [NumBuckets]atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Since records the nanoseconds elapsed from start to now.
func (h *Histogram) Since(start time.Time) {
	h.Observe(uint64(time.Since(start)))
}

// Snapshot returns a point-in-time copy of the histogram. Snapshots taken
// concurrently with Observe calls are internally consistent per field
// (each counter is read atomically); cross-field skew of a few in-flight
// observations is acceptable by design.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistSnapshot is an immutable, mergeable histogram snapshot.
type HistSnapshot struct {
	Count   uint64             `json:"count"`
	Sum     uint64             `json:"sum"`
	Max     uint64             `json:"max"`
	Buckets [NumBuckets]uint64 `json:"buckets"`
}

// Mean returns the arithmetic mean of the observed values (0 when empty).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns an upper bound for the q-quantile (0 < q ≤ 1): the top
// of the bucket containing the q·Count-th observation, clamped to the
// observed maximum. The bound is within 2× of the true value — the
// resolution of power-of-two buckets — which is exact enough to separate
// a 10µs pause from a 10ms one, the distinction the paper's claims rest
// on.
func (s HistSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	if q >= 1 {
		return s.Max
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := 0; i < NumBuckets; i++ {
		cum += s.Buckets[i]
		if cum >= rank {
			if u := BucketUpper(i); u < s.Max {
				return u
			}
			return s.Max
		}
	}
	return s.Max
}

// QuantileDur is Quantile for nanosecond histograms.
func (s HistSnapshot) QuantileDur(q float64) time.Duration {
	return time.Duration(s.Quantile(q))
}

// MaxDur is the maximum for nanosecond histograms.
func (s HistSnapshot) MaxDur() time.Duration { return time.Duration(s.Max) }

// MeanDur is the mean for nanosecond histograms.
func (s HistSnapshot) MeanDur() time.Duration { return time.Duration(s.Mean()) }

// Delta returns the observations recorded after base was taken (bucket-
// wise differences) — the phase-measurement counterpart of Merge, for
// excluding a setup phase from a benchmark's distribution. The Max of the
// delta is exact when the phase set a new maximum; otherwise it is the
// upper bound of the highest bucket the phase touched (within 2×, the
// histogram's resolution), clamped to the all-time maximum.
func (s HistSnapshot) Delta(base HistSnapshot) HistSnapshot {
	var d HistSnapshot
	d.Count = s.Count - base.Count
	d.Sum = s.Sum - base.Sum
	for i := range s.Buckets {
		d.Buckets[i] = s.Buckets[i] - base.Buckets[i]
	}
	if s.Max > base.Max {
		d.Max = s.Max
		return d
	}
	for i := NumBuckets - 1; i >= 0; i-- {
		if d.Buckets[i] > 0 {
			u := BucketUpper(i)
			if u > s.Max {
				u = s.Max
			}
			d.Max = u
			break
		}
	}
	return d
}

// Merge returns the union of two snapshots (bucket-wise sums, max of
// maxes) — the property that makes per-shard or per-run histograms
// aggregable without raw samples.
func (s HistSnapshot) Merge(o HistSnapshot) HistSnapshot {
	out := s
	out.Count += o.Count
	out.Sum += o.Sum
	if o.Max > out.Max {
		out.Max = o.Max
	}
	for i := range out.Buckets {
		out.Buckets[i] += o.Buckets[i]
	}
	return out
}
