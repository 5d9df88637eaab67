package core

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"stableheap/internal/faultfs"
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
