package obs

import (
	"testing"
	"time"
)

// BenchmarkHistogramObserve measures the always-on record path. The
// acceptance bar is 0 allocs/op; the overhead figure feeds DESIGN.md's
// "leave it on" argument.
func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(uint64(i))
	}
}

func BenchmarkHistogramObserveParallel(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := uint64(0)
		for pb.Next() {
			v++
			h.Observe(v)
		}
	})
}

func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkRecorderSpan(b *testing.B) {
	bb := NewBlackBox(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bb.Span(EvTxCommit, time.Microsecond, uint64(i), 0, 0)
	}
}

func BenchmarkRecorderDisabled(b *testing.B) {
	var bb *BlackBox
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bb.Span(EvTxCommit, time.Microsecond, uint64(i), 0, 0)
	}
}
