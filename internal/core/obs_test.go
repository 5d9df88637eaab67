package core

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"stableheap/internal/gc"
	"stableheap/internal/obs"
)

// obsWorkload drives a mixed workload: allocations, pointer and data
// writes, commits, aborts, and a full stable collection.
func obsWorkload(t *testing.T, hp *Heap) {
	t.Helper()
	for i := 0; i < 40; i++ {
		tx := hp.Begin()
		obj, err := tx.Alloc(1, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.SetData(obj, 0, uint64(i)); err != nil {
			t.Fatal(err)
		}
		if err := tx.SetRoot(i%8, obj); err != nil {
			t.Fatal(err)
		}
		if i%5 == 4 {
			if err := tx.Abort(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	hp.CollectVolatile()
	hp.CollectStable()
}

func TestMetricsSnapshot(t *testing.T) {
	hp := openMem(DefaultConfig())
	defer hp.Close()
	obsWorkload(t, hp)

	m := hp.Metrics()
	// The acceptance bar: non-zero WAL append, GC pause and tx commit
	// histograms after a mixed workload, with no measurement mode set.
	for _, name := range []string{"wal_append_ns", "wal_force_ns", "gc_flip_ns", "tx_commit_ns", "tx_abort_ns", "tx_lifetime_commit_ns", "vgc_pause_ns"} {
		h := m.Hist(name)
		if h.Count == 0 {
			t.Errorf("histogram %s is empty after a mixed workload", name)
		} else if h.Sum == 0 {
			t.Errorf("histogram %s recorded %d observations of zero time", name, h.Count)
		}
	}
	for _, name := range []string{"tx_committed_total", "tx_aborted_total", "gc_collections_total", "cache_misses_total", "wal_appends_total", "wal_forces_total"} {
		if m.Counter(name) == 0 {
			t.Errorf("counter %s is zero after a mixed workload", name)
		}
	}
	// cache_hits_total counts page re-references — a lookup that sets a
	// clock bit the replacement sweep cleared — not words served: an
	// unbounded cache never sweeps, so it reports none, and a bounded one
	// at most one per resident page per lap.
	if n := m.Counter("cache_hits_total"); n != 0 {
		t.Errorf("cache_hits_total = %d on an unbounded cache, want 0", n)
	}
	bc := DefaultConfig()
	bc.CachePages = 4
	bounded := openMem(bc)
	defer bounded.Close()
	obsWorkload(t, bounded)
	if n := bounded.Metrics().Counter("cache_hits_total"); n == 0 {
		t.Error("cache_hits_total is zero on a 4-page cache after a mixed workload")
	}
	// Quantiles must be readable and ordered.
	c := m.Hist("tx_commit_ns")
	p50, p99 := c.Quantile(0.5), c.Quantile(0.99)
	if p50 > p99 || p99 > c.Max {
		t.Errorf("quantiles out of order: p50=%d p99=%d max=%d", p50, p99, c.Max)
	}
	// The snapshot must marshal (it is embedded in bench JSON reports).
	if _, err := json.Marshal(m); err != nil {
		t.Fatalf("snapshot does not marshal: %v", err)
	}
	// And render as Prometheus text.
	if text := m.Prometheus(); len(text) == 0 {
		t.Fatal("empty Prometheus exposition")
	}
}

// traceDoc parses TraceJSON and returns the names of its spans ("X") and
// of its instants ("i").
func traceDoc(t *testing.T, raw []byte) (spans, instants map[string]bool) {
	t.Helper()
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	spans, instants = map[string]bool{}, map[string]bool{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			spans[ev.Name] = true
		case "i":
			instants[ev.Name] = true
		}
	}
	return spans, instants
}

func TestTraceEnabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FlightRecorder = true
	cfg.ConcurrentVGC = false // so CollectVolatile is one stop-the-world span
	hp := openMem(cfg)
	defer hp.Close()
	// Enough survivors to fill the nursery: the minor-collection span.
	for i := 0; i < 64; i++ {
		tx := hp.Begin()
		obj, err := tx.Alloc(1, 1, 62)
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.SetVolRoot(i%8, obj); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	obsWorkload(t, hp)
	hp.StartStableCollection()
	for hp.StepStable() {
	}

	spans, instants := traceDoc(t, hp.TraceJSON())
	for _, want := range []string{"tx-commit", "wal-force", "stable-gc-flip", "stable-gc-step", "vgc-flip", "vgc-minor"} {
		if !spans[want] {
			t.Errorf("trace has no %q span (spans: %v)", want, spans)
		}
	}
	for _, want := range []string{"tx-begin", "tx-abort"} {
		if !instants[want] {
			t.Errorf("trace has no %q instant (instants: %v)", want, instants)
		}
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	hp := openMem(DefaultConfig())
	defer hp.Close()
	obsWorkload(t, hp)
	if hp.FlightRecorder() != nil {
		t.Fatal("event ring exists without Config.FlightRecorder")
	}
	// Still a loadable (empty) document.
	spans, instants := traceDoc(t, hp.TraceJSON())
	if len(spans)+len(instants) != 0 {
		t.Fatalf("recorder-off heap traced %v %v", spans, instants)
	}
}

func TestRecoveryMetrics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FlightRecorder = true
	hp := openMem(cfg)
	obsWorkload(t, hp)
	disk, logDev := hp.Crash()
	h2, err := reopen(cfg, disk, logDev)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	m := h2.Metrics()
	for _, name := range []string{"recovery_analysis_ns", "recovery_redo_ns", "recovery_undo_ns"} {
		if m.Hist(name).Count != 1 {
			t.Errorf("histogram %s count = %d, want 1", name, m.Hist(name).Count)
		}
	}
	if m.Counter("recovery_redo_scanned_total") == 0 {
		t.Error("no redo records scanned")
	}
	if _, ok := m.Histograms["recovery_evacuate_ns"]; !ok {
		t.Error("histogram recovery_evacuate_ns missing")
	}
	// Open reopens the devices before the heap exists and reports it, over
	// memory as over files.
	if got := m.Hist("recovery_reopen_ns"); got.Count != 1 {
		t.Errorf("recovery_reopen_ns after an in-memory restart = %d samples, want 1", got.Count)
	}
	dcfg := cfg
	dcfg.Dir = filepath.Join(t.TempDir(), "heap")
	dh, err := openDir(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := dh.Metrics().Histograms["recovery_reopen_ns"]; ok {
		t.Error("a freshly formatted heap reports a reopen phase")
	}
	obsWorkload(t, dh)
	dh.Crash()
	dh, err = openDir(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer dh.Close()
	if got := dh.Metrics().Hist("recovery_reopen_ns"); got.Count != 1 || got.Max == 0 {
		t.Errorf("recovery_reopen_ns after a restart from files = %d samples (max %d ns), want 1 nonzero", got.Count, got.Max)
	}
	// The recovery phases landed in the trace, as spans.
	spans, _ := traceDoc(t, h2.TraceJSON())
	for _, want := range []string{"recovery-analysis", "recovery-redo", "recovery-undo"} {
		if !spans[want] {
			t.Errorf("trace missing recovery phase %q (spans: %v)", want, spans)
		}
	}
}

// TestSATBCounterPerArea gives each concurrent scan its own SATB counter:
// one deletion-barrier hit in a concurrent volatile scan, with no stable
// collection ever run, reads 1 on vgc_conc_satb_gray_total and 0 on
// gc_conc_satb_gray_total.
func TestSATBCounterPerArea(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StableGC, cfg.ConcurrentVGC, cfg.ManualScan = gc.Concurrent, true, true
	hp := openMem(cfg)
	defer hp.Close()
	tr := hp.Begin()
	a, err := tr.Alloc(1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tr.Alloc(1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.SetPtr(a, 0, b); err != nil {
		t.Fatal(err)
	}
	if err := tr.SetVolRoot(0, a); err != nil {
		t.Fatal(err)
	}
	commit(t, tr)
	if _, err := hp.CollectVolatile(); err != nil {
		t.Fatal(err)
	}
	if !hp.ConcurrentScanActive() {
		t.Fatal("no concurrent volatile scan in flight")
	}
	// Reading the root transports a; its slot still names b in from-space
	// (ManualScan: no quantum has run), and clearing it grays b.
	tr = hp.Begin()
	if a, err = tr.VolRoot(0); err != nil {
		t.Fatal(err)
	}
	if err := tr.SetPtr(a, 0, nil); err != nil {
		t.Fatal(err)
	}
	commit(t, tr)
	m := hp.Metrics()
	for name, want := range map[string]int64{"gc_conc_satb_gray_total": 0, "vgc_conc_satb_gray_total": 1, "gc_collections_total": 0} {
		if got, ok := m.Counters[name]; !ok || got != want {
			t.Errorf("%s = %d (present %v), want %d", name, got, ok, want)
		}
	}
	hp.FinishVolatileScan()
}

// TestMetricsWhileStopped scrapes a stopped heap: Metrics takes no latch,
// so it answers while another goroutine holds the stop latch exclusively.
func TestMetricsWhileStopped(t *testing.T) {
	hp := openMem(DefaultConfig())
	defer hp.Close()
	obsWorkload(t, hp)
	hp.stop.Lock()
	defer hp.stop.Unlock()
	done := make(chan obs.Snapshot, 1)
	go func() { done <- hp.Metrics() }()
	select {
	case m := <-done:
		if m.Counter("tx_committed_total") == 0 {
			t.Fatal("the scrape of a stopped heap read no commits")
		}
	case <-time.After(time.Second):
		t.Fatal("Metrics blocked on a stopped heap")
	}
}

// TestMetricsScrapeDuringConcurrentScans scrapes in a loop while both
// areas' concurrent scans run on their collector goroutines and committers
// run beside them: under -race it holds every registered metric to atomic
// access, and no counter may go backwards between two scrapes.
func TestMetricsScrapeDuringConcurrentScans(t *testing.T) {
	cfg := nurseryCfg()
	cfg.StableGC, cfg.ConcurrentVGC = gc.Concurrent, true
	hp := openMem(cfg)
	defer hp.Close()
	for slot := 0; slot < 4; slot++ {
		buildList(t, hp, slot, 8, uint64(100*slot))
	}
	stop := make(chan struct{})
	scraped := make(chan error, 1)
	go func() {
		prev := hp.Metrics()
		for {
			select {
			case <-stop:
				scraped <- nil
				return
			default:
			}
			cur := hp.Metrics()
			for name, v := range prev.Counters {
				if cur.Counters[name] < v {
					scraped <- fmt.Errorf("%s went from %d to %d", name, v, cur.Counters[name])
					return
				}
			}
			prev = cur
		}
	}()
	for round := 0; round < 4; round++ {
		hp.StartStableCollection()
		if _, err := hp.CollectVolatile(); err != nil {
			t.Fatal(err)
		}
		for slot := 0; slot < 4; slot++ {
			buildList(t, hp, slot, 8, uint64(100*slot+round))
		}
	}
	hp.FinishVolatileScan()
	hp.FinishStableScan()
	close(stop)
	if err := <-scraped; err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < 4; slot++ {
		checkList(t, hp, slot, 8, uint64(100*slot+3))
	}
	if m := hp.Metrics(); m.Counter("gc_conc_collections_total") == 0 || m.Counter("vgc_conc_collections_total") == 0 {
		t.Fatal("no concurrent collection ran")
	}
}

// TestMetricsScrapeAcrossClose scrapes in a loop while the heap closes with
// its watchdog running: a scrape takes no latch, so it may overlap Close,
// and it reads nothing Close rewrites.
func TestMetricsScrapeAcrossClose(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WatchdogInterval = time.Millisecond
	hp := openMem(cfg)
	obsWorkload(t, hp)
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				hp.Metrics()
			}
		}
	}()
	hp.Close()
	close(stop)
	<-done
}
