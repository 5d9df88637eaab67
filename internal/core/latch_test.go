package core

import (
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"stableheap/internal/gc"
	"stableheap/internal/word"
)

// restripe gives a freshly opened, still idle heap n writer stripes instead
// of latchShards, so tests can force stripe collisions.
func restripe(hp *Heap, n int) { hp.shards = make([]sync.Mutex, n) }

// TestLockShardsForCopyPinsExactlyThePagesShards checks lockShardsForCopy
// against the definition, not the arithmetic: for ranges from one word to
// several times the shard count in pages, at every page alignment, the
// shard of every word in [to, to+size) is held, no other shard is, and the
// returned function releases them all.
func TestLockShardsForCopyPinsExactlyThePagesShards(t *testing.T) {
	cfg := smallCfg()
	hp := openMem(cfg)
	defer hp.Close()
	restripe(hp, 4)
	pageWords := cfg.PageSize / word.WordSize
	held := func(m *sync.Mutex) bool {
		if m.TryLock() {
			m.Unlock()
			return false
		}
		return true
	}
	for _, size := range []int{1, 2, pageWords - 1, pageWords, pageWords + 1, 3 * pageWords, 4*pageWords + 1, 9 * pageWords} {
		for off := 0; off < 6*pageWords; off += pageWords/2 + 1 {
			to := word.Addr(0).Add(off)
			want := make(map[*sync.Mutex]bool)
			for w := 0; w < size; w++ {
				want[hp.shardOf(to.Add(w))] = true
			}
			unlock := hp.lockShardsForCopy(to, size)
			for i := range hp.shards {
				if got := held(&hp.shards[i]); got != want[&hp.shards[i]] {
					t.Fatalf("to=%d size=%d: shard %d held=%v, want %v", to, size, i, got, want[&hp.shards[i]])
				}
			}
			unlock()
			for i := range hp.shards {
				if held(&hp.shards[i]) {
					t.Fatalf("to=%d size=%d: shard %d still held after unlock", to, size, i)
				}
			}
		}
	}
}

// TestAccessTakesLatchOnce: an object operation is one latched action.
// While an op-paced stable collection runs, every action stops the heap, so
// N re-reads of an object the transaction already holds are exactly N heap
// stops — the lock, the address and the word all come from one hold.
func TestAccessTakesLatchOnce(t *testing.T) {
	hp := openMem(smallCfg())
	defer hp.Close()
	// Enough live data in the stable area to outlast the reads.
	buildList(t, hp, 0, 1000, 0)
	if _, err := hp.CollectVolatile(); err != nil {
		t.Fatal(err)
	}
	tr := hp.Begin()
	defer tr.Abort()
	head, err := tr.Root(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Data(head, 0); err != nil { // takes head's read lock
		t.Fatal(err)
	}
	hp.StartStableCollection()
	const n = 40
	stops := hp.Metrics().Hist("latch_stop_wait_ns").Count
	for i := 0; i < n; i++ {
		if v, err := tr.Data(head, 0); err != nil || v != 0 {
			t.Fatalf("re-read %d: %d, %v", i, v, err)
		}
	}
	got := hp.Metrics().Hist("latch_stop_wait_ns").Count - stops
	if !hp.sgc.Active() {
		t.Fatal("the collection finished during the re-reads")
	}
	if got != n {
		t.Fatalf("%d re-reads stopped the heap %d times, want %d", n, got, n)
	}
}

// TestQuantumIsOneHeapStop: a concurrent scan's quantum is one heap stop,
// in either area, and a mutator's re-read between quanta stops nothing —
// mutator actions run shared while a concurrent collection is in flight.
func TestQuantumIsOneHeapStop(t *testing.T) {
	cfg := smallCfg()
	cfg.StableGC, cfg.ConcurrentVGC, cfg.ManualScan = gc.Concurrent, true, true
	hp := openMem(cfg)
	defer hp.Close()
	// A committed list the flip moves to the stable area for the stable
	// scan, and an open transaction's uncommitted one for the volatile scan.
	buildList(t, hp, 0, 300, 0)
	if _, err := hp.CollectVolatile(); err != nil {
		t.Fatal(err)
	}
	hp.FinishVolatileScan()
	tr := hp.Begin()
	defer tr.Abort()
	stableHead, err := tr.Root(0)
	if err != nil {
		t.Fatal(err)
	}
	var volHead *Ref
	for i := 0; i < 300; i++ {
		node, err := tr.Alloc(1, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.SetPtr(node, 0, volHead); err != nil {
			t.Fatal(err)
		}
		volHead = node
	}
	stops := func() uint64 { return hp.Metrics().Hist("latch_stop_wait_ns").Count }
	reread := func() {
		t.Helper()
		before := stops()
		for _, r := range []*Ref{stableHead, volHead} {
			if v, err := tr.Data(r, 0); err != nil || v != 0 {
				t.Fatalf("re-read: %d, %v", v, err)
			}
		}
		if got := stops() - before; got != 0 {
			t.Fatalf("re-reads during the scan stopped the heap %d times", got)
		}
	}
	for _, area := range []struct {
		name   string
		start  func()
		step   func() bool
		finish func()
	}{
		{"volatile", func() {
			if _, err := hp.CollectVolatile(); err != nil {
				t.Fatal(err)
			}
		}, hp.StepVolatileScan, hp.FinishVolatileScan},
		{"stable", hp.StartStableCollection, hp.StepStableScan, hp.FinishStableScan},
	} {
		area.start()
		quanta := 0
		for more := true; more; quanta++ {
			reread()
			before := stops()
			more = area.step()
			if got := stops() - before; got != 1 {
				t.Fatalf("%s quantum %d stopped the heap %d times, want 1", area.name, quanta, got)
			}
		}
		if quanta < 2 {
			t.Fatalf("the %s scan took %d quanta; the list is too short to test", area.name, quanta)
		}
		area.finish()
	}
}

// TestStaleCollectorTakesNoLatch: concurrent volatile collections start
// back to back inside one heap stop, each retiring the one before it
// inline, and the stop retires the last. Every collector goroutine they
// started finds its collection gone and leaves without stopping the heap,
// so the only stop counted is the test's own. GOMAXPROCS 1 with the Go
// collector off keeps the goroutines from running, and so from seeing
// their collection live, before the stop ends.
func TestStaleCollectorTakesNoLatch(t *testing.T) {
	cfg := smallCfg()
	cfg.ConcurrentVGC = true
	hp := openMem(cfg)
	defer hp.Close()
	buildList(t, hp, 0, 100, 0)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	goroutines := runtime.NumGoroutine()
	stops := hp.Metrics().Hist("latch_stop_wait_ns").Count
	const k = 8
	runtime.Gosched() // a fresh time slice for the stop below
	func() {
		hp.lockExclusive()
		defer hp.unlockExclusive()
		for i := 0; i < k; i++ {
			if err := hp.collectVolatile(); err != nil {
				t.Fatal(err)
			}
			if !hp.vscan.on.Load() {
				t.Fatalf("collection %d left no scan in flight", i)
			}
		}
		hp.finishConcurrentLocked()
	}()
	hp.scanWG.Wait()
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > goroutines; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want %d", runtime.NumGoroutine(), goroutines)
		}
		time.Sleep(time.Millisecond)
	}
	if got := hp.Metrics().Hist("latch_stop_wait_ns").Count - stops; got != 1 {
		t.Fatalf("%d heap stops, want the test's 1: stale collector goroutines stopped the heap", got)
	}
}

// TestAccessWaitsWithLatchReleased: an access whose object lock is taken
// waits with the latch released, so a heap stop completes meanwhile; once
// the holder commits, the access takes the lock, reads the committed value
// and counts one lock wait.
func TestAccessWaitsWithLatchReleased(t *testing.T) {
	c := smallCfg()
	c.LockWait = 10 * time.Second
	hp := openMem(c)
	defer hp.Close()
	seedSlots(t, hp, 1)
	holder := hp.Begin()
	obj, err := holder.Root(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := holder.SetData(obj, 0, 7); err != nil {
		t.Fatal(err)
	}
	waits := hp.Metrics().Hist("lock_wait_ns").Count
	type read struct {
		v   uint64
		err error
	}
	got := make(chan read, 1)
	go func() {
		tr := hp.Begin()
		defer tr.Abort()
		o, err := tr.Root(0)
		if err != nil {
			got <- read{err: err}
			return
		}
		v, err := tr.Data(o, 0) // waits for holder's write lock
		got <- read{v, err}
	}()
	time.Sleep(20 * time.Millisecond) // let the reader reach the wait
	stopped := make(chan struct{})
	go func() {
		hp.Checkpoint() // stops the heap
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("a heap stop waited on an access blocked for its lock")
	}
	commit(t, holder)
	if r := <-got; r.err != nil || r.v != 7 {
		t.Fatalf("the waiting read: %d, %v; want 7", r.v, r.err)
	}
	if n := hp.Metrics().Hist("lock_wait_ns").Count - waits; n != 1 {
		t.Fatalf("%d lock waits counted, want 1", n)
	}
}
