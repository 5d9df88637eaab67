package core

import (
	"testing"

	"stableheap/internal/wal"
	"stableheap/internal/word"
)

// mkCounter commits a one-word counter in the stable area under slot.
func mkCounter(t *testing.T, hp *Heap, slot int, initial uint64) {
	t.Helper()
	tr := hp.Begin()
	c, err := tr.Alloc(1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.SetData(c, 0, initial); err != nil {
		t.Fatal(err)
	}
	if err := tr.SetRoot(slot, c); err != nil {
		t.Fatal(err)
	}
	commit(t, tr)
	if _, err := hp.CollectVolatile(); err != nil {
		t.Fatal(err)
	}
}

func counterVal(t *testing.T, hp *Heap, slot int) uint64 {
	t.Helper()
	tr := hp.Begin()
	defer tr.Abort()
	c, err := tr.Root(slot)
	if err != nil || c == nil {
		t.Fatalf("root: %v", err)
	}
	v, err := tr.Data(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestAddDataCommit(t *testing.T) {
	hp := openMem(smallCfg())
	mkCounter(t, hp, 0, 100)
	tr := hp.Begin()
	c, _ := tr.Root(0)
	if err := tr.AddData(c, 0, 5); err != nil {
		t.Fatal(err)
	}
	if err := tr.AddData(c, 0, ^uint64(0)); err != nil { // -1 wrapping
		t.Fatal(err)
	}
	commit(t, tr)
	if v := counterVal(t, hp, 0); v != 104 {
		t.Fatalf("counter = %d, want 104", v)
	}
}

func TestAddDataAbortCompensates(t *testing.T) {
	hp := openMem(smallCfg())
	mkCounter(t, hp, 0, 100)
	tr := hp.Begin()
	c, _ := tr.Root(0)
	for i := 0; i < 5; i++ {
		if err := tr.AddData(c, 0, 7); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Abort(); err != nil {
		t.Fatal(err)
	}
	if v := counterVal(t, hp, 0); v != 100 {
		t.Fatalf("counter = %d, want 100 after abort", v)
	}
}

func TestAddDataLogsNoBeforeImage(t *testing.T) {
	hp := openMem(smallCfg())
	mkCounter(t, hp, 0, 0)
	tr := hp.Begin()
	c, _ := tr.Root(0)
	if err := tr.AddData(c, 0, 3); err != nil {
		t.Fatal(err)
	}
	commit(t, tr)
	var logical, physical int
	var logicalBytes int
	hp.Log().Scan(1, false, func(_ word.LSN, r wal.Record) bool {
		switch r.(type) {
		case wal.LogicalRec:
			logical++
			logicalBytes = len(wal.Encode(r))
		case wal.UpdateRec:
			physical++
		}
		return true
	})
	if logical != 1 {
		t.Fatalf("logical records = %d", logical)
	}
	phys := len(wal.Encode(wal.UpdateRec{Redo: make([]byte, 8), Undo: make([]byte, 8)}))
	if logicalBytes >= phys {
		t.Fatalf("logical record (%dB) not smaller than physical (%dB)", logicalBytes, phys)
	}
}

func TestAddDataCrashRecoveryCommitted(t *testing.T) {
	hp := openMem(smallCfg())
	mkCounter(t, hp, 0, 10)
	for i := 0; i < 8; i++ {
		tr := hp.Begin()
		c, _ := tr.Root(0)
		if err := tr.AddData(c, 0, 10); err != nil {
			t.Fatal(err)
		}
		commit(t, tr)
	}
	disk, logDev := hp.Crash()
	hp2, err := reopen(smallCfg(), disk, logDev)
	if err != nil {
		t.Fatal(err)
	}
	if v := counterVal(t, hp2, 0); v != 90 {
		t.Fatalf("counter = %d, want 90", v)
	}
}

func TestAddDataCrashRecoveryLoserUndone(t *testing.T) {
	hp := openMem(smallCfg())
	mkCounter(t, hp, 0, 50)
	tr := hp.Begin()
	c, _ := tr.Root(0)
	if err := tr.AddData(c, 0, 999); err != nil {
		t.Fatal(err)
	}
	// Steal: flush the uncommitted delta to disk.
	hp.Mem().FlushAll()
	disk, logDev := hp.Crash()
	hp2, err := reopen(smallCfg(), disk, logDev)
	if err != nil {
		t.Fatal(err)
	}
	if v := counterVal(t, hp2, 0); v != 50 {
		t.Fatalf("counter = %d, want 50 (loser compensated)", v)
	}
}

func TestAddDataUndoAfterCollectorMove(t *testing.T) {
	hp := openMem(smallCfg())
	mkCounter(t, hp, 0, 5)
	tr := hp.Begin()
	c, _ := tr.Root(0)
	if err := tr.AddData(c, 0, 3); err != nil {
		t.Fatal(err)
	}
	hp.CollectStable() // counter moves; logical undo needs only the slot address
	if err := tr.Abort(); err != nil {
		t.Fatal(err)
	}
	if v := counterVal(t, hp, 0); v != 5 {
		t.Fatalf("counter = %d, want 5", v)
	}
}

func TestAddDataVolatileObject(t *testing.T) {
	hp := openMem(smallCfg())
	tr := hp.Begin()
	c, _ := tr.Alloc(1, 0, 1)
	if err := tr.SetData(c, 0, 10); err != nil {
		t.Fatal(err)
	}
	if err := tr.AddData(c, 0, 7); err != nil {
		t.Fatal(err)
	}
	v, err := tr.Data(c, 0)
	if err != nil || v != 17 {
		t.Fatalf("volatile add: %d (%v)", v, err)
	}
	before := hp.Log().Device().Stats().Appends
	if err := tr.AddData(c, 0, 1); err != nil {
		t.Fatal(err)
	}
	if hp.Log().Device().Stats().Appends != before {
		t.Fatal("volatile AddData must not log")
	}
	if err := tr.Abort(); err != nil {
		t.Fatal(err)
	}
}

func TestAddDataMixedWithPhysicalUpdatesAbort(t *testing.T) {
	hp := openMem(smallCfg())
	mkCounter(t, hp, 0, 1)
	tr := hp.Begin()
	c, _ := tr.Root(0)
	if err := tr.AddData(c, 0, 10); err != nil {
		t.Fatal(err)
	}
	if err := tr.SetData(c, 0, 77); err != nil {
		t.Fatal(err)
	}
	if err := tr.AddData(c, 0, 3); err != nil {
		t.Fatal(err)
	}
	if err := tr.Abort(); err != nil {
		t.Fatal(err)
	}
	if v := counterVal(t, hp, 0); v != 1 {
		t.Fatalf("mixed undo chain broke: %d, want 1", v)
	}
}
