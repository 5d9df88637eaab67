package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"stableheap/internal/storage"
	"stableheap/internal/word"
)

// faultyLog fails one append with a typed device error once armed.
type faultyLog struct {
	storage.LogDevice
	armed atomic.Bool
}

func (l *faultyLog) Append(data []byte) word.LSN {
	if l.armed.CompareAndSwap(true, false) {
		panic(&storage.DeviceIOError{Op: "append", LSN: l.EndLSN()})
	}
	return l.LogDevice.Append(data)
}

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
	log := &faultyLog{LogDevice: storage.NewLog(c.WithDefaults().LogSegBytes)}
	hp := OpenOn(c, storage.NewDisk(c.PageSize), log)
	seedSlots(t, hp, 4)

	tr := hp.Begin()
	obj, err := tr.Root(0)
	if err != nil {
		t.Fatal(err)
	}
	log.armed.Store(true)
	first := deviceFault(func() { tr.SetData(obj, 0, 99) }) // its update record is the append that fails
	if first == nil {
		t.Fatal("the armed append did not surface")
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

	end := log.EndLSN()
	disk, dev := hp.Crash()
	if dev.EndLSN() > end {
		t.Fatalf("crash appended to a failed heap's log: end %d → %d", end, dev.EndLSN())
	}
	rec, err := Recover(c, disk, dev)
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
