package core

import (
	"sync"
	"testing"
	"time"

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
