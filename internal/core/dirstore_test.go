package core

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"stableheap/internal/faultfs"
	"stableheap/internal/storage"
	"stableheap/internal/storage/filestore"
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

	hp, err := openDir(dirCfg(dir))
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	buildList(t, hp, 0, 30, 100)
	buildList(t, hp, 1, 10, 900)
	hp.Close()

	// Reopen is recovery: Open sees the formatted master.
	hp2, err := openDir(dirCfg(dir))
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
	hp, err := openDir(dirCfg(dir))
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

	hp2, err := openDir(dirCfg(dir))
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
	hp, err := openDir(dirCfg(dir))
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	var fds, gos int
	for cycle := 0; cycle < 50; cycle++ {
		buildList(t, hp, cycle%4, 6, uint64(cycle))
		hp.Crash()
		if hp, err = openDir(dirCfg(dir)); err != nil {
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
	hp, err := openDir(c)
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

	hp2, err := openDir(c)
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
	hp, err := openDir(c)
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
	hp, err = openDir(resolved)
	if err != nil {
		t.Fatal(err)
	}
	if n := resident(hp); n != 16 {
		t.Errorf("reopened with the resolved Config: %d pages, want 16", n)
	}
	hp.Close()

	c = dirCfg(t.TempDir())
	c.FileCachePages = 8
	hp, err = openDir(c)
	if err != nil {
		t.Fatal(err)
	}
	if n := resident(hp); n < 40 {
		t.Errorf("Dir heap with CachePages 0 holds %d pages, want all 40 touched: unbounded", n)
	}
	hp.Close()

	mc := smallCfg()
	mc.CachePages, mc.FileCachePages = 8, 8
	mem := openMem(mc)
	defer mem.Close()
	if n := resident(mem); n != 8 {
		t.Errorf("in-memory heap holds %d pages, want 8: FileCachePages applies only to Dir heaps", n)
	}
}

// TestOpenDelegatesToDir: Config.Dir says the backings are a directory's
// files, so a zero LogSegBytes takes the file segment default there (a
// force of set-up size then costs no segment file of its own) and the
// memory default elsewhere; the heap reopens from the directory alone.
func TestOpenDelegatesToDir(t *testing.T) {
	c := dirCfg(t.TempDir())
	hp, err := openDir(c)
	if err != nil {
		t.Fatal(err)
	}
	if got := hp.Config().LogSegBytes; got != filestore.DefaultSegmentBytes {
		t.Errorf("Dir heap segment %d, want the file default %d", got, filestore.DefaultSegmentBytes)
	}
	buildList(t, hp, 0, 3, 1)
	hp.Close()
	hp2, err := openDir(c)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer hp2.Close()
	if vals := readList(t, hp2, 0); len(vals) != 3 {
		t.Fatalf("Dir heap not recoverable: %v", vals)
	}
	mem := openMem(smallCfg())
	defer mem.Close()
	if got := mem.Config().LogSegBytes; got != storage.DefaultSegmentSize {
		t.Errorf("in-memory heap segment %d, want %d", got, storage.DefaultSegmentSize)
	}
}

// TestOpenAdoptsStoredGeometry: Open on an existing directory must take
// its geometry from the files — a zero PageSize means "the store decides", not "Open's default" (the filestore refuses a page size
// other than the one it was formatted with).
func TestOpenAdoptsStoredGeometry(t *testing.T) {
	dir := t.TempDir()
	hp, err := openDir(Config{Dir: dir, PageSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	buildList(t, hp, 0, 4, 11)
	hp.Close()

	hp2, err := openDir(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
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
	hp, err := openDir(dirCfg(dir)) // PageSize 256
	if err != nil {
		t.Fatal(err)
	}
	buildList(t, hp, 0, 4, 11)
	hp.Close()

	c := dirCfg(dir)
	c.PageSize = 0 // caller doesn't know; files do
	hp2, err := openDir(c)
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

// TestOpenWithoutMasterRecoversFromLog: a heap directory that lost its
// master.dat still holds a log with records, so Open rebuilds the heap
// from that log instead of formatting over it — the committed object
// still reads 42, and a new allocation does not land on it. With the log
// truncated no rebuild is possible, and the open is refused by name.
func TestOpenWithoutMasterRecoversFromLog(t *testing.T) {
	c := dirCfg(t.TempDir())
	hp, err := openDir(c)
	if err != nil {
		t.Fatal(err)
	}
	buildList(t, hp, 0, 1, 42)
	hp.Close()
	if err := os.Remove(filepath.Join(c.Dir, "master.dat")); err != nil {
		t.Fatal(err)
	}
	hp, err = openDir(c)
	if err != nil {
		t.Fatalf("open without master.dat: %v", err)
	}
	defer hp.Close()
	if hp.LastRecovery() == nil {
		t.Fatal("open without master.dat formatted over a log that holds records")
	}
	buildList(t, hp, 1, 1, 7)
	checkList(t, hp, 0, 1, 42)
	checkList(t, hp, 1, 1, 7)

	c = dirCfg(t.TempDir())
	c.LogSegBytes = 1024 // small enough that checkpoints free a segment
	hp, err = openDir(c)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); hp.logDev.TruncLSN() <= 1; i++ {
		if i == 100 {
			t.Fatal("truncation never freed a segment")
		}
		buildList(t, hp, 0, 1, i)
		hp.Checkpoint()
		buildList(t, hp, 1, 1, i) // promotes the checkpoint
		hp.TruncateLog()
	}
	hp.Close()
	if err := os.Remove(filepath.Join(c.Dir, "master.dat")); err != nil {
		t.Fatal(err)
	}
	if _, err := openDir(c); err == nil || !strings.Contains(err.Error(), "no formatted master") {
		t.Fatalf("open without master.dat over a truncated log: %v, want a refusal naming the lost master", err)
	}
}

// TestFirstOpenInterruptedReopens: a first open whose master write fails
// — the first checkpoint already forced — returns the device fault as an
// error, and leaves the master unformatted over a log that holds that
// checkpoint, so the next Open rebuilds the heap from it instead of
// refusing a formatted master that names no checkpoint.
func TestFirstOpenInterruptedReopens(t *testing.T) {
	db, lb := storage.NewMemBacking(), storage.NewMemBacking()
	failing := faultfs.OnSync(db, func() error { return errors.New("power cut") })
	if _, err := Open(smallCfg(), failing, lb); !errors.Is(err, storage.ErrIO) {
		t.Fatalf("first open with the master write failing: %v, want a typed I/O error", err)
	}
	hp, err := Open(smallCfg(), db, lb)
	if err != nil {
		t.Fatalf("reopen after the interrupted first open: %v", err)
	}
	defer hp.Close()
	if hp.LastRecovery() == nil {
		t.Fatal("the reopen formatted over a log that holds a checkpoint")
	}
	buildList(t, hp, 0, 2, 5)
	checkList(t, hp, 0, 2, 5)
}

// TestFirstOpenLogForceFailsReopens: a first open whose first log force
// fails returns the device fault as an error, and the next Open opens and
// takes writes. The bootstrap commit rides the first checkpoint's force,
// so that failed force leaves the log's records ending in that checkpoint
// (media recovery rebuilds from it) — never records with no checkpoint,
// which a reopen can only refuse.
func TestFirstOpenLogForceFailsReopens(t *testing.T) {
	db, lb := storage.NewMemBacking(), storage.NewMemBacking()
	var syncs atomic.Int64
	failing := faultfs.OnSync(lb, func() error {
		if syncs.Add(1) == 1 {
			return errors.New("power cut")
		}
		return nil
	})
	if _, err := Open(smallCfg(), db, failing); !errors.Is(err, storage.ErrIO) {
		t.Fatalf("first open with the first log force failing: %v, want a typed I/O error", err)
	}
	hp, err := Open(smallCfg(), db, lb)
	if err != nil {
		t.Fatalf("reopen after the failed first log force: %v", err)
	}
	defer hp.Close()
	buildList(t, hp, 0, 2, 5)
	checkList(t, hp, 0, 2, 5)
}

// replaceCounter counts a backing's atomic replaces.
type replaceCounter struct {
	storage.Backing
	n *atomic.Int64
}

func (b replaceCounter) Replace(name string, data []byte) error {
	b.n.Add(1)
	return b.Backing.Replace(name, data)
}

// TestFreshOpenSyncBudget: formatting a fresh directory costs two
// File.Sync calls (the first checkpoint's force, which the bootstrap
// commit rides, and the barrier that promotes it) and two atomic replaces
// (the unformatted master the page store writes at creation, the promoted
// master) — every set-up opens a fresh directory, so a sync more is set-up
// time. (Marking the master formatted before the first checkpoint cost a
// third replace and sync; forcing the bootstrap commit on its own cost a
// third sync; the log's metadata file, before its segment files were its
// only state, a third replace.)
func TestFreshOpenSyncBudget(t *testing.T) {
	c := dirCfg(t.TempDir())
	db, lb, err := filestore.Backings(c.Dir)
	if err != nil {
		t.Fatal(err)
	}
	var syncs, replaces atomic.Int64
	count := func(b storage.Backing) storage.Backing {
		return faultfs.OnSync(replaceCounter{b, &replaces}, func() error { syncs.Add(1); return nil })
	}
	hp, err := Open(c, count(db), count(lb))
	if err != nil {
		t.Fatal(err)
	}
	defer hp.Close()
	s, r := syncs.Load(), replaces.Load()
	t.Logf("a fresh open: %d File.Sync, %d Replace calls", s, r)
	if s > 2 || r > 2 {
		t.Fatal("want at most 2 syncs and 2 replaces")
	}
}

// TestTruncateLogStopsNothing: truncating a directory heap's log unlinks
// segment files and nothing more — no File.Sync, no atomic replace — and
// takes the shared latch, so the heap is never stopped for it: the stop
// histogram, which an uncontended stop still records, does not move.
func TestTruncateLogStopsNothing(t *testing.T) {
	c := dirCfg(t.TempDir())
	c.LogSegBytes = 1024 // small enough that checkpoints free a segment
	db, lb, err := filestore.Backings(c.Dir)
	if err != nil {
		t.Fatal(err)
	}
	var syncs, replaces atomic.Int64
	count := func(b storage.Backing) storage.Backing {
		return faultfs.OnSync(replaceCounter{b, &replaces}, func() error { syncs.Add(1); return nil })
	}
	hp, err := Open(c, count(db), count(lb))
	if err != nil {
		t.Fatal(err)
	}
	defer hp.Close()
	for i := uint64(0); hp.logDev.TruncLSN() <= 1; i++ {
		if i == 100 {
			t.Fatal("truncation never freed a segment")
		}
		buildList(t, hp, 0, 1, i)
		hp.Checkpoint()
		buildList(t, hp, 1, 1, i) // promotes the checkpoint
		s, r := syncs.Load(), replaces.Load()
		stops := hp.Metrics().Hist("latch_stop_wait_ns").Count
		hp.TruncateLog()
		if s, r, stops = syncs.Load()-s, replaces.Load()-r, hp.Metrics().Hist("latch_stop_wait_ns").Count-stops; s+r+int64(stops) != 0 {
			t.Fatalf("TruncateLog: %d File.Sync, %d Replace, %d heap stops; want none", s, r, stops)
		}
	}
	names, err := lb.List("seg-")
	if err != nil {
		t.Fatal(err)
	}
	if names[0] == "seg-0000000000000001.seg" {
		t.Fatalf("truncated to %d but the first segment file is still there: %v", hp.logDev.TruncLSN(), names)
	}
}

// TestLeftoverLogMetaIgnored: a directory an earlier build closed still
// holds log/log.meta beside its segment files. Nothing reads that file: the
// heap opens, recovers and keeps what it held.
func TestLeftoverLogMetaIgnored(t *testing.T) {
	c := dirCfg(t.TempDir())
	hp, err := openDir(c)
	if err != nil {
		t.Fatal(err)
	}
	buildList(t, hp, 0, 3, 42)
	hp.Close()
	if err := os.WriteFile(filepath.Join(c.Dir, "log", "log.meta"), []byte("SHL2 not read by anyone"), 0o644); err != nil {
		t.Fatal(err)
	}
	hp, err = openDir(c)
	if err != nil {
		t.Fatalf("open beside a leftover log.meta: %v", err)
	}
	defer hp.Close()
	if hp.LastRecovery() == nil {
		t.Fatal("the reopen did not recover")
	}
	checkList(t, hp, 0, 3, 42)
}
