package lock

import (
	"sync"
	"testing"
	"time"

	"stableheap/internal/word"
)

func TestSharedReaders(t *testing.T) {
	m := NewManager(0)
	if err := m.Acquire(1, 0x10, Read); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, 0x10, Read); err != nil {
		t.Fatal("read locks must be shared:", err)
	}
}

func TestWriteExcludesAll(t *testing.T) {
	m := NewManager(0)
	if err := m.Acquire(1, 0x10, Write); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, 0x10, Read); err != ErrTimeout {
		t.Fatal("reader must conflict with writer")
	}
	if err := m.Acquire(2, 0x10, Write); err != ErrTimeout {
		t.Fatal("writer must conflict with writer")
	}
}

func TestReaderBlocksWriter(t *testing.T) {
	m := NewManager(0)
	m.Acquire(1, 0x10, Read)
	if err := m.Acquire(2, 0x10, Write); err != ErrTimeout {
		t.Fatal("writer must conflict with reader")
	}
}

func TestReacquireIsNoop(t *testing.T) {
	m := NewManager(0)
	for i := 0; i < 3; i++ {
		if err := m.Acquire(1, 0x10, Write); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Acquire(1, 0x10, Read); err != nil {
		t.Fatal("read after write must be subsumed:", err)
	}
	if mode, ok := m.Holds(1, 0x10); !ok || mode != Write {
		t.Fatal("must still hold write")
	}
}

func TestUpgradeSoleReader(t *testing.T) {
	m := NewManager(0)
	m.Acquire(1, 0x10, Read)
	if err := m.Acquire(1, 0x10, Write); err != nil {
		t.Fatal("sole reader must upgrade:", err)
	}
	if m.WriteLockedBy(0x10) != 1 {
		t.Fatal("upgrade not recorded")
	}
}

func TestUpgradeBlockedByOtherReader(t *testing.T) {
	m := NewManager(0)
	m.Acquire(1, 0x10, Read)
	m.Acquire(2, 0x10, Read)
	if err := m.Acquire(1, 0x10, Write); err != ErrTimeout {
		t.Fatal("upgrade with other readers must conflict")
	}
}

func TestReleaseAllFreesLocks(t *testing.T) {
	m := NewManager(0)
	m.Acquire(1, 0x10, Write)
	m.Acquire(1, 0x20, Read)
	m.ReleaseAll(1)
	if err := m.Acquire(2, 0x10, Write); err != nil {
		t.Fatal("released lock must be acquirable:", err)
	}
	if _, ok := m.Holds(1, 0x20); ok {
		t.Fatal("Holds must be cleared")
	}
	if len(m.HeldBy(1)) != 0 {
		t.Fatal("HeldBy must be empty")
	}
}

func TestBlockingAcquireWakesOnRelease(t *testing.T) {
	m := NewManager(2 * time.Second)
	m.Acquire(1, 0x10, Write)
	done := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		done <- m.Acquire(2, 0x10, Write)
	}()
	time.Sleep(10 * time.Millisecond)
	m.ReleaseAll(1)
	wg.Wait()
	if err := <-done; err != nil {
		t.Fatal("waiter must be granted after release:", err)
	}
}

func TestBlockingAcquireTimesOut(t *testing.T) {
	m := NewManager(30 * time.Millisecond)
	m.Acquire(1, 0x10, Write)
	start := time.Now()
	err := m.Acquire(2, 0x10, Write)
	if err != ErrTimeout {
		t.Fatal("expected timeout, got", err)
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Fatal("timed out too early")
	}
	if m.Met.Timeouts.Load() != 1 {
		t.Fatal("timeout not counted")
	}
}

func TestRekeyMovesState(t *testing.T) {
	m := NewManager(0)
	m.Acquire(1, 0x10, Write)
	m.Acquire(2, 0x20, Read)
	m.Relocate(word.Moves{{From: 0x10, To: 0x90, Words: 1}})
	m.Relocate(word.Moves{{From: 0x20, To: 0xa0, Words: 1}})
	if m.WriteLockedBy(0x90) != 1 {
		t.Fatal("write lock must follow the object")
	}
	if m.WriteLockedBy(0x10) != 0 {
		t.Fatal("old address must be free")
	}
	if mode, ok := m.Holds(2, 0xa0); !ok || mode != Read {
		t.Fatal("read lock must follow the object")
	}
	// Conflicts apply at the new address.
	if err := m.Acquire(3, 0x90, Read); err != ErrTimeout {
		t.Fatal("rekeyed lock must still conflict")
	}
	// Old address is acquirable afresh.
	if err := m.Acquire(3, 0x10, Write); err != nil {
		t.Fatal(err)
	}
}

func TestRekeyMissingIsNoop(t *testing.T) {
	m := NewManager(0)
	m.Relocate(word.Moves{{From: 0x10, To: 0x90, Words: 1}}) // nothing locked: fine
	if len(m.LockedAddrs()) != 0 {
		t.Fatal("no state expected")
	}
}

func TestLockedAddrs(t *testing.T) {
	m := NewManager(0)
	m.Acquire(1, 0x10, Write)
	m.Acquire(2, 0x20, Read)
	addrs := m.LockedAddrs()
	if len(addrs) != 2 {
		t.Fatalf("LockedAddrs = %v", addrs)
	}
}

func TestResetClearsEverything(t *testing.T) {
	m := NewManager(0)
	m.Acquire(1, 0x10, Write)
	m.Reset()
	if len(m.LockedAddrs()) != 0 {
		t.Fatal("reset must clear the table")
	}
	if err := m.Acquire(2, 0x10, Write); err != nil {
		t.Fatal(err)
	}
}

func TestSystemTxCannotLock(t *testing.T) {
	m := NewManager(0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Acquire(word.SystemTx, 0x10, Read)
}

func TestConcurrentStress(t *testing.T) {
	m := NewManager(time.Second)
	const txs = 8
	const addrs = 4
	var wg sync.WaitGroup
	errs := make(chan error, txs)
	for i := 0; i < txs; i++ {
		wg.Add(1)
		go func(tx word.TxID) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				a := word.Addr((j % addrs) * 8)
				// Lock in ascending address order to avoid deadlock.
				if err := m.Acquire(tx, a, Write); err != nil {
					errs <- err
					return
				}
				m.ReleaseAll(tx)
			}
		}(word.TxID(i + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestTryAcquireNeverBlocks(t *testing.T) {
	m := NewManager(time.Hour) // long default wait must not matter
	m.Acquire(1, 0x10, Write)
	start := time.Now()
	if err := m.TryAcquire(2, 0x10, Read); err != ErrTimeout {
		t.Fatal("expected immediate timeout")
	}
	if time.Since(start) > 100*time.Millisecond {
		t.Fatal("TryAcquire blocked")
	}
}

func TestReleaseSingleLock(t *testing.T) {
	m := NewManager(0)
	m.Acquire(1, 0x10, Write)
	m.Acquire(1, 0x20, Read)
	m.Release(1, 0x10)
	if _, held := m.Holds(1, 0x10); held {
		t.Fatal("released lock still held")
	}
	if _, held := m.Holds(1, 0x20); !held {
		t.Fatal("other lock must remain")
	}
	if err := m.Acquire(2, 0x10, Write); err != nil {
		t.Fatal("released address must be free:", err)
	}
	m.Release(3, 0x999) // releasing nothing is a no-op
}

func TestWaitFreeReturnsWhenReleased(t *testing.T) {
	m := NewManager(0)
	m.Acquire(1, 0x10, Write)
	done := make(chan error, 1)
	go func() {
		done <- m.WaitFree(2, 0x10, Write, 2*time.Second)
	}()
	time.Sleep(10 * time.Millisecond)
	m.ReleaseAll(1)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal("WaitFree must report grantable after release:", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitFree never woke")
	}
}

func TestWaitFreeTimesOut(t *testing.T) {
	m := NewManager(0)
	m.Acquire(1, 0x10, Write)
	if err := m.WaitFree(2, 0x10, Write, 20*time.Millisecond); err != ErrTimeout {
		t.Fatal("WaitFree must time out while held, got", err)
	}
	// Zero wait: immediate answer.
	if err := m.WaitFree(2, 0x10, Write, 0); err != ErrTimeout {
		t.Fatal("zero-wait WaitFree must answer ErrTimeout while held, got", err)
	}
	if err := m.WaitFree(1, 0x10, Write, 0); err != nil {
		t.Fatal("holder itself sees grantable:", err)
	}
}

func TestWaitFreeDoesNotAcquire(t *testing.T) {
	m := NewManager(0)
	if err := m.WaitFree(1, 0x10, Write, 0); err != nil {
		t.Fatal("free address must be grantable:", err)
	}
	// Nothing was acquired: another tx can take it.
	if err := m.Acquire(2, 0x10, Write); err != nil {
		t.Fatal(err)
	}
}

// TestBirthRange: a birth range is its owner's write lock on every address
// in it. Another transaction's acquire or WriteLockedBy makes the lock an
// entry and conflicts with it; a move out of the range carries it to the
// new address; the owner's release drops the range with its locks, so no
// later lookup grants the ended owner anything.
func TestBirthRange(t *testing.T) {
	m := NewManager(0)
	m.SetBirthRange(1, 0x100, 0x140)
	m.SetBirthRange(1, 0x100, 0x200) // grown in place
	m.SetBirthRange(2, 0x200, 0x240)
	if err := m.Acquire(2, 0x1f8, Read); err != ErrTimeout {
		t.Fatalf("reader of tx 1's born object: %v, want a conflict", err)
	}
	if w := m.WriteLockedBy(0x120); w != 1 {
		t.Fatalf("WriteLockedBy(born address) = %d, want 1", w)
	}
	if err := m.Acquire(1, 0x130, Write); err != nil {
		t.Fatalf("the owner's own acquire: %v", err)
	}
	if err := m.Acquire(1, 0x240, Write); err != nil {
		t.Fatalf("an address past every range: %v", err)
	}
	m.Relocate(word.Moves{{From: 0x110, To: 0x9000, Words: 2}, {From: 0x208, To: 0x9010, Words: 2}})
	if w := m.WriteLockedBy(0x9000); w != 1 {
		t.Fatalf("moved born object locked by %d, want 1", w)
	}
	if w := m.WriteLockedBy(0x9010); w != 2 {
		t.Fatalf("tx 2's moved born object locked by %d, want 2", w)
	}
	m.ReleaseAll(1)
	for _, a := range []word.Addr{0x110, 0x120, 0x130, 0x1f8, 0x9000} {
		if w := m.WriteLockedBy(a); w != 0 {
			t.Fatalf("after tx 1 ended %v is write-locked by %d", a, w)
		}
	}
	if w := m.WriteLockedBy(0x210); w != 2 {
		t.Fatalf("tx 2's range lost with tx 1's: %d", w)
	}
	m.DropBirthRanges()
	if w := m.WriteLockedBy(0x220); w != 0 {
		t.Fatalf("dropped range still locks: %d", w)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("an overlapping birth range was accepted")
		}
	}()
	m.SetBirthRange(3, 0x300, 0x340)
	m.SetBirthRange(4, 0x320, 0x380)
}
