package core

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stableheap/internal/faultfs"
	"stableheap/internal/obs"
	"stableheap/internal/storage"
)

// deviceFault runs fn and returns the typed device error it panicked with,
// nil if it returned; any other panic propagates.
func deviceFault(fn func()) (fault error) {
	defer func() {
		if v := recover(); v != nil {
			e, ok := storage.AsDeviceError(v)
			if !ok {
				panic(v)
			}
			fault = e
		}
	}()
	fn()
	return nil
}

// A device fault that unwinds a latched section leaves its action half done,
// so the heap is fail-stop: every later operation, on any goroutine,
// re-raises the typed fault instead of appending to a log that is no longer
// the heap's history; Crash still works, and recovery brings back exactly
// the committed state.
func TestDeviceFaultFailsTheHeap(t *testing.T) {
	c := smallCfg()
	var armed atomic.Bool // fails the log's next sync
	hp := mustOpen(c, storage.NewMemBacking(), faultfs.OnSync(storage.NewMemBacking(), func() error {
		if armed.CompareAndSwap(true, false) {
			return errors.New("sync failed")
		}
		return nil
	}))
	seedSlots(t, hp, 4)
	hp.Checkpoint() // the slots' pages are now older than the last checkpoint

	tr := hp.Begin()
	obj, err := tr.Root(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.SetData(obj, 0, 99); err != nil {
		t.Fatal(err)
	}
	armed.Store(true)
	// The next checkpoint writes those pages back, and the write-ahead rule
	// forces the log through tr's update first: the force that fails, under
	// the latch.
	first := deviceFault(func() { hp.Checkpoint() })
	if first == nil {
		t.Fatal("the armed force did not surface")
	}
	if !strings.Contains(first.Error(), "force") {
		t.Fatalf("the first fault is %v, not the failed force", first)
	}

	ops := map[string]func(){
		"Begin":         func() { hp.Begin() },
		"Root":          func() { tr.Root(1) },
		"Abort":         func() { tr.Abort() },
		"Checkpoint":    func() { hp.Checkpoint() },
		"CollectStable": func() { hp.CollectStable() },
		"Close":         func() { hp.Close() },
	}
	var wg sync.WaitGroup
	for name, op := range ops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := deviceFault(op); got != first {
				t.Errorf("%s on the failed heap: got %v, want the first fault %v", name, got, first)
			}
		}()
	}
	wg.Wait()
	// Metrics takes no latch, so the failed heap still answers a scrape.
	if got := deviceFault(func() { hp.Metrics() }); got != nil {
		t.Fatalf("Metrics on the failed heap: %v", got)
	}

	_, log := hp.Devices()
	end := log.EndLSN()
	disk, dev := hp.Crash()
	if dev.EndLSN() > end {
		t.Fatalf("crash appended to a failed heap's log: end %d → %d", end, dev.EndLSN())
	}
	rec, err := reopen(c, disk, dev)
	if err != nil {
		t.Fatal(err)
	}
	tr = rec.Begin()
	for w := 0; w < 4; w++ {
		obj, err := tr.Root(w)
		if err != nil || obj == nil {
			t.Fatalf("slot %d after recovery: %v %v", w, obj, err)
		}
	}
	commit(t, tr)
}

// The fault that makes the heap fail-stop is marked in the flight recorder
// once, by the call that made it so: an EvCrash with fail-stop = 1, before
// the EvCrash of the Crash that follows. Allocs on four goroutines meet the
// failing force together; those that fault beside the first, and the
// Commits the failed heap refuses afterwards, mark nothing.
func TestFailStopMarkedOnce(t *testing.T) {
	c := smallCfg()
	c.FlightRecorder = true
	c.CachePages = 4 // an Alloc soon evicts a dirty page, forcing the log under the latch
	// Once armed, every log sync fails, slowly enough that the other
	// Allocs reach the force while the first still fails.
	var armed atomic.Bool
	hp := mustOpen(c, storage.NewMemBacking(), faultfs.OnSync(storage.NewMemBacking(), func() error {
		if armed.Load() {
			time.Sleep(time.Millisecond)
			return errors.New("sync failed")
		}
		return nil
	}))
	seedSlots(t, hp, 4)

	txs := []*Tx{hp.Begin(), hp.Begin(), hp.Begin(), hp.Begin()}
	armed.Store(true)
	commitFaults := make([]error, len(txs))
	var wg sync.WaitGroup
	for i, tr := range txs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var fault error
			for n := 0; n < 1000 && fault == nil; n++ {
				fault = deviceFault(func() {
					if obj, err := tr.Alloc(1, 0, 8); err == nil {
						tr.SetData(obj, 0, uint64(n))
					}
				})
			}
			if fault == nil {
				t.Error("no Alloc met the failing force")
			}
			commitFaults[i] = deviceFault(func() { tr.Commit() })
		}()
	}
	wg.Wait()
	for i, got := range commitFaults {
		if first := *hp.failed.Load(); got != first {
			t.Errorf("Commit %d on the failed heap: got %v, want the first fault %v", i, got, first)
		}
	}
	hp.Crash()

	evs := hp.FlightEvents()
	marks, markAt, crashAt := 0, -1, -1
	for i, ev := range evs {
		switch {
		case ev.Kind != obs.EvCrash:
		case ev.A == 1:
			marks, markAt = marks+1, i
		default:
			crashAt = i
		}
	}
	if marks != 1 || crashAt != len(evs)-1 || markAt > crashAt {
		t.Fatalf("%d fail-stop markers (last at %d), crash marker at %d of %d; want one, before the crash:\n%s",
			marks, markAt, crashAt, len(evs), obs.FormatTail(evs, 8))
	}
}
