package core

import (
	"testing"
)

// nurseryCfg is smallCfg with a deliberately tiny nursery so minor
// collections fire after a handful of allocations.
func nurseryCfg() Config {
	c := smallCfg()
	c.NurseryBytes = 2 << 10
	return c
}

// TestStableToNurseryPointerSurvivesMinor is the remembered-set regression
// test: a pointer stored from the stable area into a nursery object must
// keep that object alive — and be rewritten — across a minor collection,
// both while the storing transaction is still open and after it commits.
func TestStableToNurseryPointerSurvivesMinor(t *testing.T) {
	hp := openMem(nurseryCfg())
	defer hp.Close()

	// A committed, evacuated object: physically in the stable area.
	tr := hp.Begin()
	s, err := tr.Alloc(1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.SetRoot(0, s); err != nil {
		t.Fatal(err)
	}
	commit(t, tr)
	if _, err := hp.CollectVolatile(); err != nil {
		t.Fatal(err)
	}

	// Uncommitted: the stable slot write is the only reference to n.
	tr = hp.Begin()
	if s, err = tr.Root(0); err != nil {
		t.Fatal(err)
	}
	n, err := tr.Alloc(2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.SetData(n, 0, 77); err != nil {
		t.Fatal(err)
	}
	if err := tr.SetPtr(s, 0, n); err != nil {
		t.Fatal(err)
	}
	if hp.NurseryUsedWords() == 0 {
		t.Fatal("allocation should have landed in the nursery")
	}
	if _, err := hp.CollectNursery(); err != nil {
		t.Fatal(err)
	}
	if hp.NurseryUsedWords() != 0 {
		t.Fatal("minor collection must empty the nursery")
	}
	got, err := tr.Ptr(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("stable→nursery pointer lost by minor collection")
	}
	if v, err := tr.Data(got, 0); err != nil || v != 77 {
		t.Fatalf("promoted object corrupted: v=%d err=%v", v, err)
	}
	commit(t, tr)

	// Committed: commit makes n newly stable (reachable from a stable
	// object), so the next minor must move it with a logged evacuation.
	tr = hp.Begin()
	if _, err := hp.CollectNursery(); err != nil {
		t.Fatal(err)
	}
	if s, err = tr.Root(0); err != nil {
		t.Fatal(err)
	}
	got, err = tr.Ptr(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := tr.Data(got, 0); err != nil || v != 77 {
		t.Fatalf("object lost after commit + minor: v=%d err=%v", v, err)
	}
	tr.Abort()
}

// TestAgedToNurseryPointerSurvivesMinor covers the generational write
// barrier's other edge: a pointer stored from an aged volatile object into
// a nursery object (tracked by the nursery remembered set, not SRem) must
// keep the target alive across a minor collection when that slot is its
// only root.
func TestAgedToNurseryPointerSurvivesMinor(t *testing.T) {
	hp := openMem(nurseryCfg())
	defer hp.Close()

	// Promote a into the aged semispace: allocate, vol-root, minor.
	tr := hp.Begin()
	a, err := tr.Alloc(1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.SetVolRoot(0, a); err != nil {
		t.Fatal(err)
	}
	commit(t, tr)
	if _, err := hp.CollectNursery(); err != nil {
		t.Fatal(err)
	}

	tr = hp.Begin()
	if a, err = tr.VolRoot(0); err != nil {
		t.Fatal(err)
	}
	n, err := tr.Alloc(2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.SetData(n, 0, 99); err != nil {
		t.Fatal(err)
	}
	if err := tr.SetPtr(a, 0, n); err != nil {
		t.Fatal(err)
	}
	commit(t, tr)

	promoted, err := hp.CollectNursery()
	if err != nil {
		t.Fatal(err)
	}
	if promoted == 0 {
		t.Fatal("minor collection promoted nothing (nursery remembered set missed the root)")
	}
	tr = hp.Begin()
	defer tr.Abort()
	if a, err = tr.VolRoot(0); err != nil {
		t.Fatal(err)
	}
	got, err := tr.Ptr(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("aged→nursery pointer lost by minor collection")
	}
	if v, err := tr.Data(got, 0); err != nil || v != 99 {
		t.Fatalf("promoted object corrupted: v=%d err=%v", v, err)
	}
}

// TestNurseryAbsorbsShortLivedGarbage checks the generational hypothesis
// pays off mechanically: churning short-lived objects triggers minor
// collections, most allocations die young (promotions ≪ allocations), and
// full volatile collections stay rare.
func TestNurseryAbsorbsShortLivedGarbage(t *testing.T) {
	hp := openMem(nurseryCfg())
	defer hp.Close()
	for i := 0; i < 400; i++ {
		tr := hp.Begin()
		n, err := tr.Alloc(1, 0, 6)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.SetData(n, 0, uint64(i)); err != nil {
			t.Fatal(err)
		}
		// Overwrite the previous round's chain: it dies in the nursery.
		if err := tr.SetVolRoot(0, n); err != nil {
			t.Fatal(err)
		}
		commit(t, tr)
	}
	m := hp.Metrics()
	if m.Counter("vgc_nursery_minor_total") == 0 {
		t.Fatal("expected minor collections from nursery churn")
	}
	allocated, promoted := m.Counter("vgc_nursery_alloc_objects_total"), m.Counter("vgc_nursery_promoted_objects_total")
	if allocated == 0 {
		t.Fatal("expected nursery allocations")
	}
	if promoted*4 > allocated {
		t.Fatalf("too many survivors: %d promoted of %d allocated (garbage should die young)",
			promoted, allocated)
	}
}

// TestNurseryDisabled checks NurseryBytes < 0 restores the prior layout:
// every allocation goes straight to the aged semispace.
func TestNurseryDisabled(t *testing.T) {
	cfg := smallCfg()
	cfg.NurseryBytes = -1
	hp := openMem(cfg)
	defer hp.Close()
	buildList(t, hp, 0, 10, 5)
	if hp.NurseryUsedWords() != 0 {
		t.Fatal("disabled nursery must never hold allocations")
	}
	if n := &hp.vgc.Met.Nursery; n.AllocObjs.Load() != 0 || n.Minors.Load() != 0 {
		t.Fatalf("disabled nursery recorded activity: %d allocations, %d minor collections",
			n.AllocObjs.Load(), n.Minors.Load())
	}
	m := hp.Metrics()
	for _, name := range []string{"vgc_nursery_alloc_objects_total", "vgc_nursery_minor_total"} {
		if _, ok := m.Counters[name]; ok {
			t.Fatalf("disabled nursery reports %s", name)
		}
	}
	checkList(t, hp, 0, 10, 5)
}

// TestConcurrentScanPreservesData starts a mostly-concurrent volatile
// collection and keeps reading and rebuilding volatile structures while
// the scan is (possibly) in flight, then retires it explicitly. The read
// barrier must forward every access; nothing may be lost or torn.
func TestConcurrentScanPreservesData(t *testing.T) {
	cfg := nurseryCfg()
	cfg.ConcurrentVGC = true
	hp := openMem(cfg)
	defer hp.Close()

	buildList(t, hp, 0, 10, 100)
	// Volatile chain reachable only through a vol root: purely volatile
	// survivors the concurrent scan must copy.
	tr := hp.Begin()
	var head *Ref
	for i := 0; i < 8; i++ {
		n, err := tr.Alloc(2, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.SetData(n, 0, uint64(1000+i)); err != nil {
			t.Fatal(err)
		}
		if err := tr.SetPtr(n, 0, head); err != nil {
			t.Fatal(err)
		}
		head = n
	}
	if err := tr.SetVolRoot(0, head); err != nil {
		t.Fatal(err)
	}
	commit(t, tr)

	if _, err := hp.CollectVolatile(); err != nil {
		t.Fatal(err)
	}
	// Mutate and read through the scan: transports and the deletion
	// barrier are live here if the scan has not finished yet.
	for i := 0; i < 5; i++ {
		checkList(t, hp, 0, 10, 100)
		tr := hp.Begin()
		h, err := tr.VolRoot(0)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; h != nil; j++ {
			v, err := tr.Data(h, 0)
			if err != nil {
				t.Fatal(err)
			}
			if v != uint64(1000+7-j) {
				t.Fatalf("volatile chain corrupted at %d: %d", j, v)
			}
			if h, err = tr.Ptr(h, 0); err != nil {
				t.Fatal(err)
			}
		}
		commit(t, tr)
	}
	hp.FinishVolatileScan()
	if hp.ConcurrentScanActive() {
		t.Fatal("FinishVolatileScan left the scan active")
	}
	if hp.Metrics().Counter("vgc_conc_collections_total") == 0 {
		t.Fatal("expected a concurrent collection")
	}
	checkList(t, hp, 0, 10, 100)
}

// TestCrashDuringConcurrentScanRecovers crashes with a concurrent scan in
// flight: the flip record is already logged, the unlogged scan vanishes,
// and recovery must reproduce every committed stable object.
func TestCrashDuringConcurrentScanRecovers(t *testing.T) {
	cfg := nurseryCfg()
	cfg.ConcurrentVGC = true
	hp := openMem(cfg)
	buildList(t, hp, 0, 8, 42)
	if _, err := hp.CollectVolatile(); err != nil {
		t.Fatal(err)
	}
	disk, logDev := hp.Crash()
	hp2, err := reopen(cfg, disk, logDev)
	if err != nil {
		t.Fatal(err)
	}
	defer hp2.Close()
	checkList(t, hp2, 0, 8, 42)
}

// TestCrashDuringMinorWindowRecovers crashes right after commits that
// left newly stable objects in the nursery (their logged moves pending),
// then recovers: the atomic-evacuation guarantee must hold for nursery
// residents exactly as for aged ones.
func TestCrashAfterNurseryCommitRecovers(t *testing.T) {
	hp := openMem(nurseryCfg())
	buildList(t, hp, 0, 6, 7)
	// No explicit collection: the list likely still sits in the nursery,
	// newly stable, awaiting evacuation.
	disk, logDev := hp.Crash()
	hp2, err := reopen(nurseryCfg(), disk, logDev)
	if err != nil {
		t.Fatal(err)
	}
	defer hp2.Close()
	checkList(t, hp2, 0, 6, 7)
}

// TestDiscardedNurseryPagesNotRead: a minor collection discards the
// nursery, so the pages of its next round are dead on disk even where an
// eviction wrote them back. On a heap whose cache holds half of the
// nursery's sixteen-page round, two more rounds of garbage make every
// nursery page resident again zero-filled: no page is read back from disk.
func TestDiscardedNurseryPagesNotRead(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CachePages = 8
	hp := openMem(cfg)
	defer hp.Close()
	round := func() {
		t.Helper()
		minors := hp.Metrics().Counter("vgc_nursery_minor_total")
		for hp.Metrics().Counter("vgc_nursery_minor_total") == minors {
			tr := hp.Begin()
			for i := 0; i < 64; i++ {
				if _, err := tr.Alloc(1, 1, 6); err != nil {
					t.Fatal(err)
				}
			}
			commit(t, tr)
		}
	}
	round() // the nursery's pages reach disk as the cache evicts them
	m := hp.Metrics()
	fetches, fresh, evictions := m.Counter("cache_fetches_total"), m.Counter("cache_fresh_pages_total"), m.Counter("cache_evictions_total")
	round()
	round()
	m = hp.Metrics()
	if n := m.Counter("cache_fetches_total") - fetches; n != 0 {
		t.Fatalf("%d pages read back from disk over two nursery rounds, want 0", n)
	}
	if n := m.Counter("cache_evictions_total") - evictions; n < 16 {
		t.Fatalf("%d evictions over two nursery rounds, want the cache to cycle", n)
	}
	if n := m.Counter("cache_fresh_pages_total") - fresh; n < 32 {
		t.Fatalf("%d pages made resident zero-filled over two nursery rounds", n)
	}
}
