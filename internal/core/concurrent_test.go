package core

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"stableheap/internal/gc"
)

// concCfg allows blocking lock waits so concurrent transactions queue
// rather than fail fast.
func concCfg() Config {
	c := smallCfg()
	c.LockWait = 250 * time.Millisecond
	return c
}

// TestConcurrentCountersSerializable runs goroutine transactions
// incrementing shared counters under blocking locks, with a collector
// goroutine flipping both areas throughout. The final counter values must
// equal the successful increments exactly: no lost updates, no phantoms,
// even while every object is being moved underneath.
func TestConcurrentCountersSerializable(t *testing.T) {
	hp := openMem(concCfg())
	const counters = 4
	tr := hp.Begin()
	for i := 0; i < counters; i++ {
		c, err := tr.Alloc(1, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.SetRoot(i, c); err != nil {
			t.Fatal(err)
		}
	}
	commit(t, tr)
	if _, err := hp.CollectVolatile(); err != nil {
		t.Fatal(err)
	}

	const workers = 4
	const perWorker = 30
	errs := make(chan error, workers+1)
	var mu sync.Mutex
	succeeded := make([]int, counters)

	var workerWg sync.WaitGroup
	for w := 0; w < workers; w++ {
		workerWg.Add(1)
		go func(w int) {
			defer workerWg.Done()
			for i := 0; i < perWorker; i++ {
				slot := (w + i) % counters
				err := func() error {
					tr := hp.Begin()
					c, err := tr.Root(slot)
					if err != nil {
						tr.Abort()
						return err
					}
					v, err := tr.Data(c, 0)
					if err != nil {
						tr.Abort()
						return err
					}
					if err := tr.SetData(c, 0, v+1); err != nil {
						tr.Abort()
						return err
					}
					return tr.Commit()
				}()
				switch {
				case err == nil:
					mu.Lock()
					succeeded[slot]++
					mu.Unlock()
				case errors.Is(err, ErrConflict):
					// deadlock victim / busy: not counted
				default:
					errs <- err
					return
				}
			}
		}(w)
	}

	// The main goroutine is the collector: it keeps both areas flipping
	// until the workers finish (and always completes at least one full
	// collection, so the verification below means something).
	done := make(chan struct{})
	go func() {
		workerWg.Wait()
		close(done)
	}()
	for running := true; running; {
		hp.StartStableCollection()
		for hp.StepStable() {
		}
		if _, err := hp.CollectVolatile(); err != nil {
			t.Fatal(err)
		}
		select {
		case <-done:
			running = false
		default:
		}
	}
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	tr2 := hp.Begin()
	defer tr2.Abort()
	for i := 0; i < counters; i++ {
		c, err := tr2.Root(i)
		if err != nil {
			t.Fatal(err)
		}
		v, err := tr2.Data(c, 0)
		if err != nil {
			t.Fatal(err)
		}
		if v != uint64(succeeded[i]) {
			t.Fatalf("counter %d = %d, want %d (lost or phantom increments)", i, v, succeeded[i])
		}
	}
	if hp.Metrics().Counter("gc_collections_total") == 0 {
		t.Fatal("the collector goroutine never collected; test proved nothing")
	}
}

// TestConcurrentBuildersIsolation has goroutines each building lists under
// their own root slot while others read, with a collector interleaved; the
// lists must come out intact.
func TestConcurrentBuildersIsolation(t *testing.T) {
	hp := openMem(concCfg())
	const workers = 4
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for round := 0; round < 10; round++ {
				n := 3 + rng.Intn(5)
				// Build a fresh list under this worker's slot.
				err := func() error {
					tr := hp.Begin()
					var head *Ref
					for i := n - 1; i >= 0; i-- {
						node, err := tr.Alloc(1, 1, 1)
						if err != nil {
							tr.Abort()
							return err
						}
						if err := tr.SetData(node, 0, uint64(w*1000+round*10+i)); err != nil {
							tr.Abort()
							return err
						}
						if err := tr.SetPtr(node, 0, head); err != nil {
							tr.Abort()
							return err
						}
						head = node
					}
					if err := tr.SetRoot(w, head); err != nil {
						tr.Abort()
						return err
					}
					return tr.Commit()
				}()
				if err != nil && !errors.Is(err, ErrConflict) {
					errs <- err
					return
				}
				// Read back my slot: values must be a consistent list
				// from some committed round of mine.
				err = func() error {
					tr := hp.Begin()
					defer tr.Abort()
					node, err := tr.Root(w)
					if err != nil {
						return err
					}
					var vals []uint64
					for node != nil {
						v, err := tr.Data(node, 0)
						if err != nil {
							return err
						}
						vals = append(vals, v)
						if node, err = tr.Ptr(node, 0); err != nil {
							return err
						}
					}
					for i, v := range vals {
						base := vals[0] - uint64(0)
						if v != base+uint64(i) {
							t.Errorf("worker %d: inconsistent list %v", w, vals)
							return nil
						}
					}
					return nil
				}()
				if err != nil && !errors.Is(err, ErrConflict) {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

// TestConcurrentTrackingSharedSubgraph has two goroutines concurrently
// publishing overlapping volatile structures; the AS bit must ensure each
// object is stabilized exactly once and both roots read back correctly.
func TestConcurrentTrackingSharedSubgraph(t *testing.T) {
	hp := openMem(concCfg())
	// A committed volatile-root object that both goroutines read.
	tr := hp.Begin()
	shared, err := tr.Alloc(1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.SetData(shared, 0, 777); err != nil {
		t.Fatal(err)
	}
	if err := tr.SetVolRoot(0, shared); err != nil {
		t.Fatal(err)
	}
	commit(t, tr)

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				err := func() error {
					tr := hp.Begin()
					sh, err := tr.VolRoot(0)
					if err != nil {
						tr.Abort()
						return err
					}
					if sh == nil {
						tr.Abort()
						return nil // already moved to the stable area
					}
					wrapper, err := tr.Alloc(1, 1, 1)
					if err != nil {
						tr.Abort()
						return err
					}
					if err := tr.SetPtr(wrapper, 0, sh); err != nil {
						tr.Abort()
						return err
					}
					if err := tr.SetRoot(w, wrapper); err != nil {
						tr.Abort()
						return err
					}
					return tr.Commit()
				}()
				if err != nil && !errors.Is(err, ErrConflict) {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if _, err := hp.CollectVolatile(); err != nil {
		t.Fatal(err)
	}
	tr2 := hp.Begin()
	defer tr2.Abort()
	for w := 0; w < 2; w++ {
		wrapper, err := tr2.Root(w)
		if err != nil {
			t.Fatal(err)
		}
		if wrapper == nil {
			continue
		}
		sh, err := tr2.Ptr(wrapper, 0)
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := tr2.Data(sh, 0); v != 777 {
			t.Fatalf("root %d shared value = %d", w, v)
		}
	}
}

var _ = gc.Ellis
