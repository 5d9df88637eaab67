package obs

import (
	"sync"
	"testing"
)

// TestConcurrentHammer drives counters and a histogram from many
// goroutines; run under -race it verifies the lock-free paths are clean,
// and the final totals verify no lost updates.
func TestConcurrentHammer(t *testing.T) {
	const (
		workers = 8
		perG    = 10000
	)
	var (
		c  Counter
		h  Histogram
		wg sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
				// Spread values across buckets deterministically.
				h.Observe(seed + uint64(i)%1024)
			}
		}(uint64(w) * 100)
	}
	// Concurrent readers while the hammer runs.
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				_ = h.Snapshot()
				_ = c.Load()
			}
		}
	}()
	wg.Wait()
	close(done)

	if got := c.Load(); got != workers*perG {
		t.Fatalf("counter = %d, want %d", got, workers*perG)
	}
	s := h.Snapshot()
	if s.Count != workers*perG {
		t.Fatalf("hist count = %d, want %d", s.Count, workers*perG)
	}
	var bucketSum uint64
	for _, b := range s.Buckets {
		bucketSum += b
	}
	if bucketSum != s.Count {
		t.Fatalf("bucket sum %d != count %d", bucketSum, s.Count)
	}
	if s.Max != (workers-1)*100+1023 {
		t.Fatalf("max = %d, want %d", s.Max, (workers-1)*100+1023)
	}
}

// TestSmoothedFollowsTheSamples: the first sample sets the average, a
// steady stream holds it, an alternating one settles on its mean rounded,
// an outlier moves it an eighth of the way, and a capped one counts as
// twice the average.
func TestSmoothedFollowsTheSamples(t *testing.T) {
	var s Smoothed
	if s.Load() != 0 {
		t.Fatalf("fresh average = %d, want 0", s.Load())
	}
	for i := 0; i < 64; i++ {
		s.Observe(1)
	}
	if s.Load() != 1 {
		t.Fatalf("after 64 ones: %d, want 1", s.Load())
	}
	for i := 0; i < 64; i++ {
		s.Observe(int64(1 + i%2))
	}
	if s.Load() != 2 {
		t.Fatalf("ones and twos alternating: %d, want their mean 1.5 rounded up", s.Load())
	}
	var d, c Smoothed
	d.Observe(100_000)
	c.ObserveCapped(100_000)
	if d.Load() != 100_000 || c.Load() != 100_000 {
		t.Fatalf("first sample: %d and %d, want 100000", d.Load(), c.Load())
	}
	d.Observe(900_000)
	c.ObserveCapped(900_000)
	if got := d.Load(); got != 200_000 {
		t.Fatalf("a 9× outlier on 100000: %d, want 200000", got)
	}
	if got := c.Load(); got != 112_500 {
		t.Fatalf("a capped 9× outlier on 100000: %d, want 112500 (counted as 2×)", got)
	}
	for i := 0; i < 64; i++ {
		d.ObserveCapped(10_000)
	}
	if got := d.Load(); got < 10_000 || got > 10_100 {
		t.Fatalf("after 64 samples of 10000: %d", got)
	}
}

// TestRegistry: Register names every tagged Counter and Histogram field,
// skips an untagged struct (a nested group registers on its own), and
// Snapshot reads what they hold.
func TestRegistry(t *testing.T) {
	var m struct {
		Ops   Counter   `obs:"ops_total"`
		Lat   Histogram `obs:"lat_ns"`
		Group struct {
			Hits Counter `obs:"hits_total"`
		}
	}
	var r Registry
	r.Register(&m)
	m.Ops.Add(3)
	m.Lat.Observe(7)
	m.Group.Hits.Inc()
	s := r.Snapshot()
	if len(s.Counters) != 1 || s.Counter("ops_total") != 3 || s.Hist("lat_ns").Count != 1 {
		t.Fatalf("snapshot %v %v", s.Counters, s.Hist("lat_ns"))
	}
	r.Register(&m.Group)
	if s := r.Snapshot(); s.Counter("hits_total") != 1 {
		t.Fatalf("nested group: %v", s.Counters)
	}
}

// TestRegistryRefusesMiswiring: a name registered twice, a tag on a field
// that is not a metric, an unexported metric field and a metric field
// without a tag all panic.
func TestRegistryRefusesMiswiring(t *testing.T) {
	var dup struct {
		A Counter `obs:"x_total"`
		B Counter `obs:"x_total"`
	}
	var notMetric struct {
		N int `obs:"n_total"`
	}
	var unexported struct {
		c Counter `obs:"c_total"`
	}
	var untaggedCounter struct {
		Q Counter
	}
	var untaggedHist struct {
		Q Histogram
	}
	for name, m := range map[string]any{"twice": &dup, "not a metric": &notMetric, "unexported": &unexported,
		"untagged counter": &untaggedCounter, "untagged histogram": &untaggedHist} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Register did not panic", name)
				}
			}()
			var r Registry
			r.Register(m)
		}()
	}
	unexported.c.Inc() // the field is used; only its registration is wrong
}
