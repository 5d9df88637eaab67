package core

import (
	"fmt"
	"time"

	"stableheap/internal/storage/filestore"
)

// This file is the directory-backed lifecycle: the same heap, built over
// internal/storage/filestore instead of the simulated devices. The
// filestore's SetMaster is a real durability barrier (fdatasync pages.dat,
// atomically replace master.dat), so the checkpoint
// promotion protocol — which already orders SetMaster after the
// checkpoint record is stable — carries over unchanged; the heap's only
// new obligations are geometry plumbing and closing the files.

func (c Config) fileOptions() filestore.Options {
	return filestore.Options{PageSize: c.PageSize, SegmentBytes: c.LogSegBytes}
}

// foldFileCache folds the deprecated FileCachePages into a bounded
// CachePages: the vm pool is a Dir heap's only page cache, and it holds the
// pages the two stacked caches held before. FileCachePages is zeroed, so
// reopening with the heap's resolved Config() does not fold it twice.
func (c Config) foldFileCache() Config {
	if c.CachePages > 0 {
		c.CachePages += c.FileCachePages
	}
	c.FileCachePages = 0
	return c
}

// OpenDir opens a file-backed stable heap at cfg.Dir: a fresh directory
// is formatted, an existing one is recovered (a cleanly closed heap
// recovers from its final checkpoint; a killed one replays the log).
func OpenDir(cfg Config) (*Heap, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("core: OpenDir with empty Config.Dir")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if filestore.IsFormatted(cfg.Dir) {
		return RecoverDir(cfg)
	}
	cfg = cfg.foldFileCache()
	// Deliberately before WithDefaults: a zero PageSize/LogSegBytes means
	// "the store decides" (its own defaults on a fresh directory), and the
	// heap then adopts whatever geometry the files actually have.
	s, err := filestore.Open(cfg.Dir, cfg.fileOptions())
	if err != nil {
		return nil, err
	}
	cfg.PageSize = s.Disk.PageSize()
	cfg.LogSegBytes = s.Log.SegmentBytes()
	hp := OpenOn(cfg, s.Disk, s.Log)
	hp.store = s
	return hp, nil
}

// RecoverDir rebuilds a file-backed stable heap from an existing
// directory — the process-restart analog of Recover: reopen the files
// (which cuts off any torn log tail), then run ordinary crash recovery
// from the mastered checkpoint.
func RecoverDir(cfg Config) (*Heap, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("core: RecoverDir with empty Config.Dir")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !filestore.IsFormatted(cfg.Dir) {
		return nil, fmt.Errorf("core: %s holds no formatted heap", cfg.Dir)
	}
	cfg = cfg.foldFileCache()
	start := time.Now()
	s, err := filestore.Open(cfg.Dir, cfg.fileOptions())
	if err != nil {
		return nil, err
	}
	reopen := time.Since(start)
	// The persisted geometry wins over whatever the caller guessed:
	// recovery must parse pages with the store's real page size.
	cfg.PageSize = s.Disk.PageSize()
	cfg.LogSegBytes = s.Log.SegmentBytes()
	hp, err := Recover(cfg, s.Disk, s.Log)
	if err != nil {
		s.Close()
		return nil, err
	}
	hp.store = s
	hp.met.recReopen.Observe(uint64(reopen))
	return hp, nil
}
