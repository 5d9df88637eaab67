package core

import (
	"os"
	"runtime"
	"testing"

	"stableheap/internal/word"
)

func dirCfg(dir string) Config {
	c := smallCfg()
	c.Dir = dir
	return c
}

// TestDirRoundTrip is the create → populate → close → reopen → audit
// smoke test: a cleanly closed file-backed heap must come back with all
// committed state intact, through nothing but the directory.
func TestDirRoundTrip(t *testing.T) {
	dir := t.TempDir()

	hp, err := OpenDir(dirCfg(dir))
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	buildList(t, hp, 0, 30, 100)
	buildList(t, hp, 1, 10, 900)
	hp.Close()

	// Reopen is recovery: OpenDir sees the formatted directory.
	hp2, err := OpenDir(dirCfg(dir))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer hp2.Close()
	vals := readList(t, hp2, 0)
	if len(vals) != 30 {
		t.Fatalf("list 0 has %d nodes after reopen", len(vals))
	}
	for i, v := range vals {
		if v != uint64(100+i) {
			t.Fatalf("list 0 node %d = %d", i, v)
		}
	}
	if vals := readList(t, hp2, 1); len(vals) != 10 || vals[9] != 909 {
		t.Fatalf("list 1 after reopen: %v", vals)
	}
	// The reopened heap is live, not read-only.
	buildList(t, hp2, 2, 5, 50)
	if vals := readList(t, hp2, 2); len(vals) != 5 {
		t.Fatalf("post-reopen write: %v", vals)
	}
}

// TestDirRecoverAfterKillPointlessClose reopens after an in-process
// Crash(): committed state survives, uncommitted state does not.
func TestDirRecoverAfterCrash(t *testing.T) {
	dir := t.TempDir()
	hp, err := OpenDir(dirCfg(dir))
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	buildList(t, hp, 0, 12, 7)
	// Leave an uncommitted transaction hanging at the crash.
	tr := hp.Begin()
	if n, err := tr.Alloc(1, 1, 1); err == nil {
		tr.SetData(n, 0, 424242)
		tr.SetRoot(1, n)
	}
	hp.Crash()

	hp2, err := RecoverDir(dirCfg(dir))
	if err != nil {
		t.Fatalf("RecoverDir: %v", err)
	}
	defer hp2.Close()
	if vals := readList(t, hp2, 0); len(vals) != 12 || vals[0] != 7 {
		t.Fatalf("committed list after crash recovery: %v", vals)
	}
	rtr := hp2.Begin()
	defer rtr.Abort()
	if n, err := rtr.Root(1); err != nil || n != nil {
		t.Fatalf("uncommitted root survived: %v %v", n, err)
	}
}

// TestDirCrashReleasesStore: Crash on a heap that owns its files must
// close the descriptors (without syncing —
// the surviving state is checked by the recovery each cycle runs), so
// crash/recover cycles leave the process's fd and goroutine counts flat.
func TestDirCrashReleasesStore(t *testing.T) {
	openFDs := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no /proc/self/fd: %v", err)
		}
		return len(ents)
	}
	dir := t.TempDir()
	hp, err := OpenDir(dirCfg(dir))
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	var fds, gos int
	for cycle := 0; cycle < 50; cycle++ {
		buildList(t, hp, cycle%4, 6, uint64(cycle))
		hp.Crash()
		if hp, err = RecoverDir(dirCfg(dir)); err != nil {
			t.Fatalf("cycle %d: RecoverDir: %v", cycle, err)
		}
		if vals := readList(t, hp, cycle%4); len(vals) != 6 || vals[0] != uint64(cycle) {
			t.Fatalf("cycle %d: committed list after crash: %v", cycle, vals)
		}
		if cycle == 4 { // past warm-up: one live heap, as at every later check
			fds, gos = openFDs(), runtime.NumGoroutine()
		}
	}
	// A leaked store costs at least two descriptors (pages.dat and a log
	// segment) per cycle; the live heap's own count may move by a segment
	// file as the log crosses a segment boundary.
	if got := openFDs(); got > fds+2 {
		t.Errorf("open fds grew from %d to %d over 45 crash/recover cycles", fds, got)
	}
	if got := runtime.NumGoroutine(); got > gos {
		t.Errorf("goroutines grew from %d to %d over 45 crash/recover cycles", gos, got)
	}
	hp.Close()
}

// TestDirLargerThanCache drives a stable heap whose footprint is far
// beyond the vm pool: everything must spill to the slot file and be
// fetched back from it.
func TestDirLargerThanCache(t *testing.T) {
	dir := t.TempDir()
	c := dirCfg(dir)
	c.CachePages = 16 // 16 pages of 256 B
	c.StableWords = 32 * 1024
	hp, err := OpenDir(c)
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	const lists, nodes = 8, 100 // ~8*100*3 words ≫ 16 pages
	for i := 0; i < lists; i++ {
		buildList(t, hp, i, nodes, uint64(1000*i))
	}
	for i := 0; i < lists; i++ {
		if vals := readList(t, hp, i); len(vals) != nodes || vals[0] != uint64(1000*i) {
			t.Fatalf("list %d: %d nodes, first %v", i, len(vals), vals[0])
		}
	}
	m := hp.Metrics()
	if v := m.Counter("cache_evictions_total"); v == 0 {
		t.Fatal("no vm evictions under pressure")
	}
	// A fresh heap has nothing on disk to fetch: every fetch re-reads a
	// slot an eviction wrote.
	if v := m.Counter("cache_fetches_total"); v == 0 {
		t.Fatal("no evicted page was fetched back from the slot file")
	}
	hp.Close()

	hp2, err := OpenDir(c)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer hp2.Close()
	for i := 0; i < lists; i++ {
		if vals := readList(t, hp2, i); len(vals) != nodes {
			t.Fatalf("list %d lost nodes after reopen: %d", i, len(vals))
		}
	}
}

// TestDirFoldsFileCache: the deprecated FileCachePages is folded into a
// bounded CachePages on a Dir heap — the one pool holds both budgets, and
// the resolved Config says so, so reopening with it does not fold twice —
// while an unbounded pool stays unbounded and an in-memory heap ignores
// the field.
func TestDirFoldsFileCache(t *testing.T) {
	resident := func(hp *Heap) int { // after touching 40 distinct stable pages
		for i := range 40 {
			hp.mem.ReadWord(hp.stableLo + word.Addr(i*hp.cfg.PageSize))
		}
		return len(hp.mem.ResidentPages())
	}
	dir := t.TempDir()
	c := dirCfg(dir)
	c.CachePages, c.FileCachePages = 8, 8
	hp, err := OpenDir(c)
	if err != nil {
		t.Fatal(err)
	}
	if n := resident(hp); n != 16 {
		t.Errorf("Dir heap with CachePages 8 + FileCachePages 8 holds %d pages, want 16", n)
	}
	if got := hp.Config(); got.CachePages != 16 || got.FileCachePages != 0 {
		t.Errorf("resolved Config: CachePages %d, FileCachePages %d, want 16 and 0", got.CachePages, got.FileCachePages)
	}
	resolved := hp.Config()
	hp.Close()
	hp, err = RecoverDir(resolved)
	if err != nil {
		t.Fatal(err)
	}
	if n := resident(hp); n != 16 {
		t.Errorf("reopened with the resolved Config: %d pages, want 16", n)
	}
	hp.Close()

	c = dirCfg(t.TempDir())
	c.FileCachePages = 8
	hp, err = OpenDir(c)
	if err != nil {
		t.Fatal(err)
	}
	if n := resident(hp); n < 40 {
		t.Errorf("Dir heap with CachePages 0 holds %d pages, want all 40 touched: unbounded", n)
	}
	hp.Close()

	mc := smallCfg()
	mc.CachePages, mc.FileCachePages = 8, 8
	mem := Open(mc)
	defer mem.Close()
	if n := resident(mem); n != 8 {
		t.Errorf("in-memory heap holds %d pages, want 8: FileCachePages applies only to Dir heaps", n)
	}
}

func TestOpenDelegatesToDir(t *testing.T) {
	dir := t.TempDir()
	c := dirCfg(dir)
	hp := Open(c) // must transparently use the directory
	buildList(t, hp, 0, 3, 1)
	hp.Close()
	hp2, err := RecoverDir(c)
	if err != nil {
		t.Fatalf("RecoverDir after Open: %v", err)
	}
	defer hp2.Close()
	if vals := readList(t, hp2, 0); len(vals) != 3 {
		t.Fatalf("Open-created heap not recoverable: %v", vals)
	}
}

// TestOpenAdoptsStoredGeometry: Open on an existing directory must take
// its geometry from the files, like OpenDir — a zero PageSize means "the
// store decides", not "Open's default" (the filestore refuses a page size
// other than the one it was formatted with).
func TestOpenAdoptsStoredGeometry(t *testing.T) {
	dir := t.TempDir()
	hp, err := OpenDir(Config{Dir: dir, PageSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	buildList(t, hp, 0, 4, 11)
	hp.Close()

	hp2 := Open(Config{Dir: dir})
	defer hp2.Close()
	if got := hp2.cfg.PageSize; got != 4096 {
		t.Fatalf("reopened page size %d, want the stored 4096", got)
	}
	if vals := readList(t, hp2, 0); len(vals) != 4 || vals[3] != 14 {
		t.Fatalf("audit: %v", vals)
	}
}

// TestRecoverDirGeometryFromFiles: recovery must use the persisted page
// size, not the caller's guess.
func TestRecoverDirGeometryFromFiles(t *testing.T) {
	dir := t.TempDir()
	hp, err := OpenDir(dirCfg(dir)) // PageSize 256
	if err != nil {
		t.Fatal(err)
	}
	buildList(t, hp, 0, 4, 11)
	hp.Close()

	c := dirCfg(dir)
	c.PageSize = 0 // caller doesn't know; files do
	hp2, err := RecoverDir(c)
	if err != nil {
		t.Fatalf("RecoverDir: %v", err)
	}
	defer hp2.Close()
	if got := hp2.cfg.PageSize; got != 256 {
		t.Fatalf("recovered page size %d, want 256", got)
	}
	if vals := readList(t, hp2, 0); len(vals) != 4 {
		t.Fatalf("audit: %v", vals)
	}
	var _ word.LSN // keep the import for future assertions
}
