package bench

import (
	"fmt"
	"os"
	"time"

	"stableheap"
)

// FileDir, when non-empty, is the parent directory E21 creates its heap
// directories under (cmd/shbench -dir); empty uses the OS temp dir.
var FileDir string

// E21Filestore measures the file-backed storage subsystem with heaps far
// beyond the durable-layer page cache: real fsyncs on the commit path,
// cold traversals after a process-style reopen (every page refetched
// from the slot file through the bounded cache), and kill-style recovery
// (reopen without a clean close, replaying the on-disk log).
func E21Filestore() Table {
	t := Table{
		ID:     "E21",
		Title:  "file-backed heaps beyond RAM: bounded durable cache, real fsync, reopen + recovery",
		Claim:  "heaps 8–16x the durable page cache stay usable, survive reopen bit-exact, and recover from a kill via log replay",
		Header: []string{"heap/cache", "live objects", "build", "warm walk", "reopen cold walk", "kill+recover", "evictions", "fsyncs"},
	}

	const cachePages = 64 // 64 KiB durable cache at 1 KiB pages
	for _, mult := range []int{8, 16} {
		row, err := filestoreRow(mult, cachePages)
		if err != nil {
			t.Rows = append(t.Rows, []string{fmt.Sprintf("%dx", mult), "error", err.Error(), "", "", "", "", ""})
			continue
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("durable cache: %d pages of 1 KiB; vm cache capped at %d pages too, so both layers churn", cachePages, cachePages),
		"build = committed chain construction (one fsynced log force per commit)",
		"reopen cold walk = close, reopen from files, full traversal (every page faults through the slot file)",
		"kill+recover = crash (un-forced log tail dropped) then reopen from files: recovery replays the on-disk log from the mastered checkpoint, then walks every chain",
		"evictions/fsyncs are the durable layer's counters over the whole cell")
	return t
}

// filestoreRow runs one heap-size multiple: build, warm walk, clean
// reopen + cold walk, then a dirty reopen (no Close) + recovery + audit.
func filestoreRow(mult, cachePages int) ([]string, error) {
	dir, err := os.MkdirTemp(FileDir, "shbench-e21-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Heap sized at mult× the durable cache: cachePages KiB of cache,
	// mult*cachePages KiB per stable semispace.
	stableWords := mult * cachePages * 1024 / 8
	cfg := cfgSized(stableWords, 16*1024)
	cfg.Dir = dir
	cfg.FileCachePages = cachePages
	cfg.CachePages = cachePages
	cfg.NumRoots = 34 // 32 traversal slots + 2 post-checkpoint chains
	// ~70% of a semispace live, 4 words per chain node (desc + data +
	// ptr), capped by the 32 chain slots buildStableChains can fill.
	liveObjects := stableWords * 7 / 10 / 4
	if max := 32 * 512; liveObjects > max {
		liveObjects = max
	}

	h, err := stableheap.OpenDir(cfg)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := buildStableChains(h, liveObjects); err != nil {
		return nil, err
	}
	build := time.Since(start)

	start = time.Now()
	if _, err := fullTraversal(h); err != nil {
		return nil, err
	}
	warm := time.Since(start)

	// Counters reset when the heap reopens, so snapshot the build/walk
	// phase before closing and add the post-reopen share below.
	m := h.Metrics()
	evictions := m.Counter("filestore_cache_evictions_total")
	fsyncs := m.Counter("filestore_page_fsyncs_total") + m.Counter("filestore_log_fsyncs_total")

	// Clean close + reopen: the cold traversal pulls every page back
	// through the bounded durable cache.
	h.Close()
	h, err = stableheap.OpenDir(cfg)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	n, err := fullTraversal(h)
	if err != nil {
		return nil, err
	}
	cold := time.Since(start)
	if n != liveObjects {
		return nil, fmt.Errorf("cold traversal saw %d objects, want %d", n, liveObjects)
	}
	m = h.Metrics()
	evictions += m.Counter("filestore_cache_evictions_total")
	fsyncs += m.Counter("filestore_page_fsyncs_total") + m.Counter("filestore_log_fsyncs_total")

	// Kill-style recovery: mutate, checkpoint, mutate more, then crash
	// (drop the un-forced log tail, keep only what commits made durable)
	// and reopen — recovery replays the on-disk log tail, and the audit
	// walks every chain.
	if err := buildChain(h, 32, 64); err != nil {
		return nil, err
	}
	h.Checkpoint()
	if err := buildChain(h, 33, 64); err != nil {
		return nil, err
	}
	h.Crash()
	start = time.Now()
	h2, err := stableheap.RecoverDir(cfg)
	if err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	if n, err := walkChain(h2, 32); err != nil || n != 64 {
		return nil, fmt.Errorf("post-recovery chain 32: n=%d err=%v", n, err)
	}
	if n, err := walkChain(h2, 33); err != nil || n != 64 {
		return nil, fmt.Errorf("post-recovery chain 33: n=%d err=%v", n, err)
	}
	if _, err := fullTraversal(h2); err != nil {
		return nil, fmt.Errorf("post-recovery traversal: %w", err)
	}
	recov := time.Since(start)
	h2.Close()

	return []string{
		fmt.Sprintf("%dx", mult),
		fmt.Sprintf("%d", liveObjects),
		dur(build),
		dur(warm),
		dur(cold),
		dur(recov),
		fmt.Sprintf("%d", evictions),
		fmt.Sprintf("%d", fsyncs),
	}, nil
}
