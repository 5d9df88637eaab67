package obs

import (
	"math"
	"testing"
	"time"
)

func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		v      uint64
		bucket int
	}{
		{0, 0},
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 3},
		{7, 3},
		{8, 4},
		{1023, 10},
		{1024, 11},
		{1025, 11},
		{math.MaxUint64, 64},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.bucket)
		}
		// The value must be ≤ its bucket's upper bound and, for nonzero
		// buckets, > the previous bucket's upper bound.
		if u := BucketUpper(c.bucket); c.v > u {
			t.Errorf("value %d exceeds BucketUpper(%d) = %d", c.v, c.bucket, u)
		}
		if c.bucket > 0 {
			if lo := BucketUpper(c.bucket - 1); c.v <= lo {
				t.Errorf("value %d should be above BucketUpper(%d) = %d", c.v, c.bucket-1, lo)
			}
		}
	}
	if BucketUpper(64) != math.MaxUint64 {
		t.Errorf("BucketUpper(64) = %d, want MaxUint64", BucketUpper(64))
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{0, 1, 1, 3, 100, 1000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 6 {
		t.Fatalf("Count = %d, want 6", s.Count)
	}
	if s.Sum != 1105 {
		t.Fatalf("Sum = %d, want 1105", s.Sum)
	}
	if s.Max != 1000 {
		t.Fatalf("Max = %d, want 1000", s.Max)
	}
	if got := s.Mean(); math.Abs(got-1105.0/6.0) > 1e-9 {
		t.Fatalf("Mean = %v", got)
	}
	if s.Buckets[0] != 1 || s.Buckets[1] != 2 || s.Buckets[2] != 1 {
		t.Fatalf("low buckets wrong: %v %v %v", s.Buckets[0], s.Buckets[1], s.Buckets[2])
	}
}

func TestQuantile(t *testing.T) {
	var h Histogram
	// 90 fast observations (~1µs) and 10 slow ones (~1ms).
	for i := 0; i < 90; i++ {
		h.Observe(1000)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1_000_000)
	}
	s := h.Snapshot()
	// p50 and p90 land in the 1000s bucket: bound within 2× of 1000.
	if q := s.Quantile(0.5); q < 1000 || q > 2047 {
		t.Errorf("p50 = %d, want within [1000, 2047]", q)
	}
	if q := s.Quantile(0.9); q < 1000 || q > 2047 {
		t.Errorf("p90 = %d, want within [1000, 2047]", q)
	}
	// p99 lands in the slow bucket, clamped to the observed max.
	if q := s.Quantile(0.99); q != 1_000_000 {
		t.Errorf("p99 = %d, want clamp to max 1000000", q)
	}
	if q := s.Quantile(1); q != 1_000_000 {
		t.Errorf("p100 = %d, want 1000000", q)
	}
	var empty HistSnapshot
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Error("empty snapshot quantile/mean should be 0")
	}
	if d := s.QuantileDur(1); d != time.Millisecond {
		t.Errorf("QuantileDur(1) = %v, want 1ms", d)
	}
}

func TestMerge(t *testing.T) {
	var a, b Histogram
	for i := 0; i < 5; i++ {
		a.Observe(10)
	}
	for i := 0; i < 3; i++ {
		b.Observe(5000)
	}
	m := a.Snapshot().Merge(b.Snapshot())
	if m.Count != 8 {
		t.Fatalf("merged Count = %d, want 8", m.Count)
	}
	if m.Sum != 5*10+3*5000 {
		t.Fatalf("merged Sum = %d", m.Sum)
	}
	if m.Max != 5000 {
		t.Fatalf("merged Max = %d, want 5000", m.Max)
	}
	// Merge must be bucket-exact: the merged histogram equals one that
	// observed the union of samples.
	var u Histogram
	for i := 0; i < 5; i++ {
		u.Observe(10)
	}
	for i := 0; i < 3; i++ {
		u.Observe(5000)
	}
	if u.Snapshot() != m {
		t.Fatal("merged snapshot differs from union histogram")
	}
}

func TestPrometheusExposition(t *testing.T) {
	s := NewSnapshot()
	s.SetCounter("tx_committed_total", 42)
	var h Histogram
	h.Observe(100)
	h.Observe(200000)
	s.SetHist("wal_append_ns", h.Snapshot())
	text := s.Prometheus()
	for _, want := range []string{
		"stableheap_tx_committed_total 42",
		"# TYPE stableheap_wal_append_ns histogram",
		`stableheap_wal_append_ns_bucket{le="+Inf"} 2`,
		"stableheap_wal_append_ns_sum 200100",
		"stableheap_wal_append_ns_count 2",
		"stableheap_wal_append_ns_max 200000",
	} {
		if !contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
