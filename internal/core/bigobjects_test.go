package core

import (
	"testing"
)

// bigCfg uses small pages so moderate objects span several of them.
func bigCfg() Config {
	return Config{
		PageSize:      256, // 32 words: a 100-word object spans 4+ pages
		StableWords:   16 * 1024,
		VolatileWords: 8 * 1024,
	}
}

// buildBig commits an object with nptrs pointers and ndata data words
// (spanning pages), fields initialized distinctively, published under slot.
func buildBig(t *testing.T, hp *Heap, slot, nptrs, ndata int) {
	t.Helper()
	tr := hp.Begin()
	big, err := tr.Alloc(7, nptrs, ndata)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < ndata; j++ {
		if err := tr.SetData(big, j, uint64(1000+j)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nptrs; i++ {
		child, err := tr.Alloc(1, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.SetData(child, 0, uint64(i)); err != nil {
			t.Fatal(err)
		}
		if err := tr.SetPtr(big, i, child); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.SetRoot(slot, big); err != nil {
		t.Fatal(err)
	}
	commit(t, tr)
}

// checkBig verifies the object published by buildBig.
func checkBig(t *testing.T, hp *Heap, slot, nptrs, ndata int) {
	t.Helper()
	tr := hp.Begin()
	defer tr.Abort()
	big, err := tr.Root(slot)
	if err != nil || big == nil {
		t.Fatalf("root %d: %v", slot, err)
	}
	_, np, nd, err := tr.Shape(big)
	if err != nil || np != nptrs || nd != ndata {
		t.Fatalf("shape %d/%d want %d/%d (%v)", np, nd, nptrs, ndata, err)
	}
	for j := 0; j < ndata; j++ {
		v, err := tr.Data(big, j)
		if err != nil || v != uint64(1000+j) {
			t.Fatalf("data[%d] = %d (%v)", j, v, err)
		}
	}
	for i := 0; i < nptrs; i++ {
		child, err := tr.Ptr(big, i)
		if err != nil || child == nil {
			t.Fatalf("ptr[%d]: %v", i, err)
		}
		v, err := tr.Data(child, 0)
		if err != nil || v != uint64(i) {
			t.Fatalf("child[%d] = %d (%v)", i, v, err)
		}
	}
}

func TestBigObjectTrackedAndMoved(t *testing.T) {
	hp := openMem(bigCfg())
	const nptrs, ndata = 12, 100 // 113 words ≈ 4 pages of 32 words
	buildBig(t, hp, 0, nptrs, ndata)
	checkBig(t, hp, 0, nptrs, ndata)
	// V2S move of a multi-page object.
	if _, err := hp.CollectVolatile(); err != nil {
		t.Fatal(err)
	}
	checkBig(t, hp, 0, nptrs, ndata)
	// Stable copy of a multi-page object (incremental, with barrier).
	hp.StartStableCollection()
	checkBig(t, hp, 0, nptrs, ndata) // mid-collection reads take traps
	for hp.StepStable() {
	}
	checkBig(t, hp, 0, nptrs, ndata)
}

func TestBigObjectCrashBeforeMove(t *testing.T) {
	hp := openMem(bigCfg())
	const nptrs, ndata = 8, 90
	buildBig(t, hp, 0, nptrs, ndata)
	// Crash with the multi-page base records as the only durable trace.
	disk, logDev := hp.Crash()
	hp2, err := reopen(bigCfg(), disk, logDev)
	if err != nil {
		t.Fatal(err)
	}
	checkBig(t, hp2, 0, nptrs, ndata)
}

func TestBigObjectCrashAfterMoveAndGC(t *testing.T) {
	hp := openMem(bigCfg())
	const nptrs, ndata = 8, 90
	buildBig(t, hp, 0, nptrs, ndata)
	hp.CollectVolatile()
	hp.CollectStable()
	// Update a word in the middle of the big object (page-straddling
	// object, single-page update), then crash.
	tr := hp.Begin()
	big, _ := tr.Root(0)
	if err := tr.SetData(big, 50, 424242); err != nil {
		t.Fatal(err)
	}
	commit(t, tr)
	disk, logDev := hp.Crash()
	hp2, err := reopen(bigCfg(), disk, logDev)
	if err != nil {
		t.Fatal(err)
	}
	tr2 := hp2.Begin()
	defer tr2.Abort()
	big2, _ := tr2.Root(0)
	if v, _ := tr2.Data(big2, 50); v != 424242 {
		t.Fatalf("updated word = %d", v)
	}
	if v, _ := tr2.Data(big2, 51); v != 1051 {
		t.Fatalf("neighbor word = %d", v)
	}
}

func TestBigObjectCrashMidCollection(t *testing.T) {
	hp := openMem(bigCfg())
	const nptrs, ndata = 8, 90
	buildBig(t, hp, 0, nptrs, ndata)
	buildBig(t, hp, 1, 4, 60)
	hp.CollectVolatile()
	hp.StartStableCollection()
	hp.StepStable() // partial: the big object may be half-scanned
	// Commit traffic forces the collector records out.
	tr := hp.Begin()
	big, _ := tr.Root(0)
	if err := tr.SetData(big, 0, 1000); err != nil {
		t.Fatal(err)
	}
	commit(t, tr)
	disk, logDev := hp.Crash()
	hp2, err := reopen(bigCfg(), disk, logDev)
	if err != nil {
		t.Fatal(err)
	}
	for hp2.StepStable() {
	}
	checkBig(t, hp2, 0, nptrs, ndata)
	checkBig(t, hp2, 1, 4, 60)
}

func TestBigObjectAbortRestoresAllPages(t *testing.T) {
	hp := openMem(bigCfg())
	const nptrs, ndata = 4, 80
	buildBig(t, hp, 0, nptrs, ndata)
	hp.CollectVolatile()
	tr := hp.Begin()
	big, _ := tr.Root(0)
	for j := 0; j < ndata; j += 7 {
		if err := tr.SetData(big, j, 9_999_999); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Abort(); err != nil {
		t.Fatal(err)
	}
	checkBig(t, hp, 0, nptrs, ndata)
}

func TestObjectLargerThanPageFails(t *testing.T) {
	// Objects larger than a semispace must fail cleanly, not corrupt.
	hp := openMem(bigCfg())
	tr := hp.Begin()
	defer tr.Abort()
	if _, err := tr.Alloc(1, 0, 9*1024); err == nil {
		t.Fatal("allocation larger than the volatile semispace must fail")
	}
}
