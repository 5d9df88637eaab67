package core

import (
	"fmt"
	"sync"
	"testing"

	"stableheap/internal/gc"
)

// concSGCCfg enables the mostly-concurrent stable collector with manual
// quantum pacing, so tests control exactly how far the scan has progressed
// when they mutate, read, or crash.
func concSGCCfg() Config {
	c := nurseryCfg()
	c.StableGC = gc.Concurrent
	c.ManualScan = true
	return c
}

// stabilize moves everything buildList created into the stable area.
func stabilize(t *testing.T, hp *Heap) {
	t.Helper()
	if _, err := hp.CollectVolatile(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentStableScanPreservesGraph flips a concurrent stable
// collection and interleaves reads, pointer overwrites (the SATB deletion
// barrier) and scan quanta, then retires the scan. Every list must survive
// intact, and the transporting read barrier must have fired.
func TestConcurrentStableScanPreservesGraph(t *testing.T) {
	hp := openMem(concSGCCfg())
	defer hp.Close()

	buildList(t, hp, 0, 12, 100)
	buildList(t, hp, 1, 12, 200)
	buildList(t, hp, 2, 12, 300)
	stabilize(t, hp)

	hp.StartStableCollection()
	if !hp.StableScanActive() {
		t.Fatal("flip did not leave a concurrent scan in flight")
	}

	// Reads during the scan run shared and transport from-space targets.
	checkList(t, hp, 0, 12, 100)

	// Overwrite root slot 2 with list 0's head: the old head of list 2 is
	// deleted mid-scan (SATB must gray it so an abort could still restore
	// it), and slot 2 now aliases list 0.
	tr := hp.Begin()
	h0, err := tr.Root(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.SetRoot(2, h0); err != nil {
		t.Fatal(err)
	}
	commit(t, tr)

	for i := 0; hp.StepStableScan(); i++ {
		if i%3 == 0 {
			checkList(t, hp, 1, 12, 200)
		}
	}
	hp.FinishStableScan()
	if hp.StableScanActive() {
		t.Fatal("FinishStableScan left the scan active")
	}

	checkList(t, hp, 0, 12, 100)
	checkList(t, hp, 1, 12, 200)
	checkList(t, hp, 2, 12, 100) // aliased to list 0
	m := hp.Metrics()
	if n := m.Counter("gc_conc_collections_total"); n != 1 {
		t.Fatalf("gc_conc_collections_total = %d, want 1", n)
	}
	if m.Counter("gc_conc_transports_total") == 0 {
		t.Fatal("no read-barrier transports despite reads during the scan")
	}
}

// TestConcurrentStableScanAbortRestoresOverwrite aborts a transaction that
// overwrote a stable pointer mid-scan: undo must restore the old target —
// through the collection's translations — and the target's contents must
// be intact after the scan retires.
func TestConcurrentStableScanAbortRestoresOverwrite(t *testing.T) {
	hp := openMem(concSGCCfg())
	defer hp.Close()

	buildList(t, hp, 0, 8, 40)
	stabilize(t, hp)

	hp.StartStableCollection()
	hp.StepStableScan() // part of the heap is copied, part is not

	tr := hp.Begin()
	h, err := tr.Root(0)
	if err != nil {
		t.Fatal(err)
	}
	// Detach the tail: list head now points at nil.
	if err := tr.SetPtr(h, 0, nil); err != nil {
		t.Fatal(err)
	}
	tr.Abort() // undo restores the tail pointer

	for hp.StepStableScan() {
	}
	hp.FinishStableScan()
	checkList(t, hp, 0, 8, 40)
}

// TestConcurrentStableScanRace runs committing mutators against the
// collector goroutine (no manual pacing) with both concurrent collectors
// enabled — the -race battery for the flip/quantum/transport latching.
func TestConcurrentStableScanRace(t *testing.T) {
	cfg := concSGCCfg()
	cfg.ManualScan = false
	cfg.ConcurrentVGC = true
	hp := openMem(cfg)
	defer hp.Close()

	// Each worker owns an anchor object hung off its root slot, so
	// object-level write locks never collide across workers; only the
	// collector contends with them.
	const lists = 4
	for s := 0; s < lists; s++ {
		tr := hp.Begin()
		anchor, err := tr.Alloc(3, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.SetRoot(s, anchor); err != nil {
			t.Fatal(err)
		}
		commit(t, tr)
		writeChain(hp, s, 10, uint64(1000*s+1000))
	}
	stabilize(t, hp)
	hp.StartStableCollection()

	var wg sync.WaitGroup
	for w := 0; w < lists; w++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				vals := readChain(hp, slot)
				if len(vals) != 10 {
					panic(fmt.Sprintf("slot %d: list length %d mid-scan", slot, len(vals)))
				}
				// Rebuild the list in the nursery and commit it over the
				// old one: deletion barrier + stability tracking churn.
				writeChain(hp, slot, 10, uint64(1000*slot+1000))
			}
		}(w)
	}
	wg.Wait()
	hp.FinishStableScan()
	hp.FinishVolatileScan()
	for s := 0; s < lists; s++ {
		vals := readChain(hp, s)
		if len(vals) != 10 {
			t.Fatalf("slot %d: list length %d after scan", s, len(vals))
		}
		for i, v := range vals {
			if v != uint64(1000*s+1000+i) {
				t.Fatalf("slot %d node %d: value %d", s, i, v)
			}
		}
	}
}

// writeChain rebuilds a 10-node list under the anchor at root slot
// (usable from goroutines; corruption panics).
func writeChain(hp *Heap, slot, n int, base uint64) {
	tr := hp.Begin()
	anchor, err := tr.Root(slot)
	if err != nil {
		panic(err)
	}
	var head *Ref
	for j := n - 1; j >= 0; j-- {
		nd, err := tr.Alloc(1, 1, 1)
		if err != nil {
			panic(err)
		}
		if err := tr.SetData(nd, 0, base+uint64(j)); err != nil {
			panic(err)
		}
		if err := tr.SetPtr(nd, 0, head); err != nil {
			panic(err)
		}
		head = nd
	}
	if err := tr.SetPtr(anchor, 0, head); err != nil {
		panic(err)
	}
	if err := tr.Commit(); err != nil {
		panic(err)
	}
}

// readChain reads the anchored list at root slot (usable from goroutines;
// corruption panics).
func readChain(hp *Heap, slot int) []uint64 {
	tr := hp.Begin()
	defer tr.Abort()
	anchor, err := tr.Root(slot)
	if err != nil {
		panic(err)
	}
	h, err := tr.Ptr(anchor, 0)
	if err != nil {
		panic(err)
	}
	var out []uint64
	for h != nil {
		v, err := tr.Data(h, 0)
		if err != nil {
			panic(err)
		}
		out = append(out, v)
		if h, err = tr.Ptr(h, 0); err != nil {
			panic(err)
		}
	}
	return out
}

// TestCrashBeforeStableFlipRecovers is the baseline of the crash triptych:
// everything committed before any flip must recover.
func TestCrashBeforeStableFlipRecovers(t *testing.T) {
	cfg := concSGCCfg()
	hp := openMem(cfg)
	buildList(t, hp, 0, 10, 77)
	stabilize(t, hp)
	disk, logDev := hp.Crash()
	hp2, err := reopen(cfg, disk, logDev)
	if err != nil {
		t.Fatal(err)
	}
	defer hp2.Close()
	checkList(t, hp2, 0, 10, 77)
	if hp2.StableScanActive() {
		t.Fatal("no collection was in flight at the crash")
	}
}

// TestCrashMidConcurrentStableScanRecovers crashes between scan quanta,
// with committed pointer overwrites (lost SATB grays) in the window. Every
// scan step so far is in the log, so recovery resumes the collection
// mid-sweep — concurrently again — and the graph must read back intact
// both before and after the resumed scan retires.
func TestCrashMidConcurrentStableScanRecovers(t *testing.T) {
	cfg := concSGCCfg()
	hp := openMem(cfg)
	buildList(t, hp, 0, 12, 500)
	buildList(t, hp, 1, 12, 600)
	stabilize(t, hp)

	hp.StartStableCollection()
	hp.StepStableScan()
	hp.StepStableScan()
	// A committed overwrite whose gray is lost by the crash.
	tr := hp.Begin()
	h0, err := tr.Root(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.SetRoot(1, h0); err != nil {
		t.Fatal(err)
	}
	commit(t, tr)
	hp.StepStableScan()

	disk, logDev := hp.Crash()
	hp2, err := reopen(cfg, disk, logDev)
	if err != nil {
		t.Fatal(err)
	}
	defer hp2.Close()

	// Reads work mid-resume (if the collection is still in flight) and
	// after explicit retirement.
	checkList(t, hp2, 0, 12, 500)
	checkList(t, hp2, 1, 12, 500)
	for hp2.StepStableScan() {
	}
	hp2.FinishStableScan()
	if hp2.StableScanActive() {
		t.Fatal("scan still active after FinishStableScan")
	}
	checkList(t, hp2, 0, 12, 500)
	checkList(t, hp2, 1, 12, 500)
}

// TestCrashAfterScanBeforeEndRecovers crashes in the window where the
// sweep has consumed everything (scan pointer caught the copy pointer)
// but the GCEnd record is not yet logged: recovery must restore the
// still-active collection and finish it without losing anything.
func TestCrashAfterScanBeforeEndRecovers(t *testing.T) {
	cfg := concSGCCfg()
	hp := openMem(cfg)
	buildList(t, hp, 0, 10, 900)
	stabilize(t, hp)

	hp.StartStableCollection()
	for hp.StepStableScan() {
	}
	// Scan drained but never retired: no GCEnd in the log.
	disk, logDev := hp.Crash()
	hp2, err := reopen(cfg, disk, logDev)
	if err != nil {
		t.Fatal(err)
	}
	defer hp2.Close()
	checkList(t, hp2, 0, 10, 900)
	hp2.FinishStableScan()
	checkList(t, hp2, 0, 10, 900)
	// The next collection must start from a clean slate.
	hp2.CollectStable()
	checkList(t, hp2, 0, 10, 900)
}

// TestLSPromotionDuringConcurrentStableScan commits newly stable objects
// while a concurrent stable scan is in flight: minor collections must move
// them straight into the active to-space's high end — without stalling on
// a full scan drain — and the objects must survive a crash in the same
// window (the V2SCopy high-end analysis path).
func TestLSPromotionDuringConcurrentStableScan(t *testing.T) {
	cfg := concSGCCfg()
	hp := openMem(cfg)
	buildList(t, hp, 0, 10, 50)
	stabilize(t, hp)

	hp.StartStableCollection()
	hp.StepStableScan()

	// Hang a fresh nursery object off the stable root: commit makes it
	// newly stable; the minor collection evacuates it into the stable
	// area while the scan is still running.
	tr := hp.Begin()
	n, err := tr.Alloc(2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.SetData(n, 0, 4242); err != nil {
		t.Fatal(err)
	}
	if err := tr.SetRoot(3, n); err != nil {
		t.Fatal(err)
	}
	commit(t, tr)
	if _, err := hp.CollectNursery(); err != nil {
		t.Fatal(err)
	}
	if !hp.StableScanActive() {
		t.Fatal("minor collection stalled the concurrent stable scan (Finish fallback)")
	}

	readLeaf := func(hp *Heap) uint64 {
		tr := hp.Begin()
		defer tr.Abort()
		p, err := tr.Root(3)
		if err != nil {
			t.Fatal(err)
		}
		if p == nil {
			t.Fatal("promoted object lost")
		}
		v, err := tr.Data(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if v := readLeaf(hp); v != 4242 {
		t.Fatalf("promoted object corrupted mid-scan: %d", v)
	}

	// Crash with the scan active and the high-end move in the log.
	disk, logDev := hp.Crash()
	hp2, err := reopen(cfg, disk, logDev)
	if err != nil {
		t.Fatal(err)
	}
	defer hp2.Close()
	checkList(t, hp2, 0, 10, 50)
	if v := readLeaf(hp2); v != 4242 {
		t.Fatalf("promoted object corrupted after crash: %d", v)
	}
	for hp2.StepStableScan() {
	}
	hp2.FinishStableScan()
	checkList(t, hp2, 0, 10, 50)
	if v := readLeaf(hp2); v != 4242 {
		t.Fatalf("promoted object corrupted after resumed scan: %d", v)
	}
}

// TestHighFrontierSurvivesIdleCheckpoint retires a concurrent collection
// that left objects at the to-space high end, checkpoints (collection
// idle), crashes, recovers, and then allocates heavily: the recovered
// allocation frontier must not overrun the high-end residents.
func TestHighFrontierSurvivesIdleCheckpoint(t *testing.T) {
	cfg := concSGCCfg()
	hp := openMem(cfg)
	buildList(t, hp, 0, 10, 70)
	stabilize(t, hp)

	hp.StartStableCollection()
	hp.StepStableScan()
	tr := hp.Begin()
	n, err := tr.Alloc(2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.SetData(n, 0, 7777); err != nil {
		t.Fatal(err)
	}
	if err := tr.SetRoot(3, n); err != nil {
		t.Fatal(err)
	}
	commit(t, tr)
	if _, err := hp.CollectNursery(); err != nil {
		t.Fatal(err)
	}
	for hp.StepStableScan() {
	}
	hp.FinishStableScan()
	hp.Checkpoint() // idle checkpoint: must carry the high frontier

	disk, logDev := hp.Crash()
	hp2, err := reopen(cfg, disk, logDev)
	if err != nil {
		t.Fatal(err)
	}
	defer hp2.Close()

	// Fill the low end: without the persisted high frontier these
	// stabilized allocations would eventually overwrite the high-end
	// object.
	for i := 0; i < 12; i++ {
		buildList(t, hp2, 2, 12, uint64(3000+i))
		if _, err := hp2.CollectVolatile(); err != nil {
			t.Fatal(err)
		}
	}
	tr = hp2.Begin()
	defer tr.Abort()
	p, err := tr.Root(3)
	if err != nil {
		t.Fatal(err)
	}
	if p == nil {
		t.Fatal("high-end object lost after recovery")
	}
	if v, err := tr.Data(p, 0); err != nil || v != 7777 {
		t.Fatalf("high-end object overwritten after recovery: v=%d err=%v", v, err)
	}
}
