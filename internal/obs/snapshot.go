package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Snapshot is the unified metrics snapshot: every subsystem's counters and
// latency distributions under one namespace, self-describing enough for
// JSON embedding (bench reports) and Prometheus-style text exposition.
// Names are snake_case; counter names end in _total, nanosecond histograms
// in _ns.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// NewSnapshot returns an empty snapshot ready for population.
func NewSnapshot() Snapshot {
	return Snapshot{
		Counters:   make(map[string]int64),
		Histograms: make(map[string]HistSnapshot),
	}
}

// SetCounter records a counter value.
func (s Snapshot) SetCounter(name string, v int64) { s.Counters[name] = v }

// SetHist records a histogram snapshot.
func (s Snapshot) SetHist(name string, h HistSnapshot) { s.Histograms[name] = h }

// Counter returns a counter by name (0 if absent).
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Hist returns a histogram by name (zero snapshot if absent).
func (s Snapshot) Hist(name string) HistSnapshot { return s.Histograms[name] }

// prefix namespaces every exposed metric.
const prefix = "stableheap_"

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format: counters as counter metrics, histograms as cumulative-bucket
// histogram metrics with an extra _max gauge (Prometheus histograms have
// no max, but bounded-pause claims are about the max).
func (s Snapshot) WritePrometheus(w io.Writer) error {
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, err := fmt.Fprintf(w, "# TYPE %s%s counter\n%s%s %d\n", prefix, n, prefix, n, s.Counters[n]); err != nil {
			return err
		}
	}
	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := s.Histograms[n]
		if _, err := fmt.Fprintf(w, "# TYPE %s%s histogram\n", prefix, n); err != nil {
			return err
		}
		// Cumulative buckets; empty leading/trailing buckets are elided but
		// the series stays cumulative and ends with +Inf.
		var cum uint64
		for i := 0; i < NumBuckets; i++ {
			if h.Buckets[i] == 0 {
				continue
			}
			cum += h.Buckets[i]
			if _, err := fmt.Fprintf(w, "%s%s_bucket{le=\"%d\"} %d\n", prefix, n, BucketUpper(i), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s%s_bucket{le=\"+Inf\"} %d\n%s%s_sum %d\n%s%s_count %d\n%s%s_max %d\n",
			prefix, n, h.Count, prefix, n, h.Sum, prefix, n, h.Count, prefix, n, h.Max); err != nil {
			return err
		}
	}
	return nil
}

// Prometheus returns the exposition text as a string.
func (s Snapshot) Prometheus() string {
	var b strings.Builder
	s.WritePrometheus(&b)
	return b.String()
}
