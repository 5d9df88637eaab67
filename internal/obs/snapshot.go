package obs

import (
	"fmt"
	"io"
	"reflect"
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

// Registry names the counters and histograms of one heap. Each is declared
// once, as a field of a subsystem's metrics struct whose `obs:"name"` tag is
// its metric name, and registered when the heap is built; Snapshot then
// reads every one with atomic loads and takes no lock, so a scrape never
// waits on the heap it reads. Register before the first Snapshot: the
// registry is not guarded against concurrent registration.
type Registry struct {
	counters map[string]*Counter
	hists    map[string]*Histogram
}

// Register adds the Counter and Histogram fields of each struct ms points
// to, under their tag names. A struct field without a tag is skipped, so a
// group nested in another is registered on its own, where its presence
// condition holds. A metric field without a tag, a name registered twice, a
// tag on a field of another type and an unexported tagged field panic: they
// are wiring errors, caught at the first open.
func (r *Registry) Register(ms ...any) {
	if r.counters == nil {
		r.counters, r.hists = make(map[string]*Counter), make(map[string]*Histogram)
	}
	for _, m := range ms {
		v := reflect.ValueOf(m).Elem()
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			name := f.Tag.Get("obs")
			if name == "" {
				if f.Type == counterType || f.Type == histType {
					panic("obs: metric field " + f.Name + " has no obs tag")
				}
				continue
			}
			if r.counters[name] != nil || r.hists[name] != nil {
				panic("obs: metric " + name + " registered twice")
			}
			if !f.IsExported() {
				panic("obs: metric " + name + " is an unexported field")
			}
			switch p := v.Field(i).Addr().Interface().(type) {
			case *Counter:
				r.counters[name] = p
			case *Histogram:
				r.hists[name] = p
			default:
				panic("obs: metric " + name + " is neither a Counter nor a Histogram")
			}
		}
	}
}

var counterType, histType = reflect.TypeOf((*Counter)(nil)).Elem(), reflect.TypeOf((*Histogram)(nil)).Elem()

// Snapshot reads every registered metric.
func (r *Registry) Snapshot() Snapshot {
	s := NewSnapshot()
	for n, c := range r.counters {
		s.Counters[n] = int64(c.Load())
	}
	for n, h := range r.hists {
		s.Histograms[n] = h.Snapshot()
	}
	return s
}

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
