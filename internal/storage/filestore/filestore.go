// Package filestore is the file-backed implementation of the storage
// device contracts (storage.PageStore, storage.LogDevice): real files,
// real fsync ordering, crash-consistent durability. It is the first
// backend where process exit is not equivalent to a crash — see the
// layout comments in disk.go and log.go for the fsync ordering rules and
// the crash model, and DESIGN.md §14 for the full design.
//
// A Store owns one directory:
//
//	<dir>/
//	  master.dat   recovery anchor (atomic rename updates)
//	  pages.dat    sparse slot file, one self-validating slot per page
//	  log/         segmented record log + metadata
//	  clones/      transient Clone() copies (twin recovery)
//
// The page store is the backing of the vm pool and caches nothing itself:
// a page write is a pwrite of its slot, a read a pread, and the barrier an
// fdatasync plus the master write. The store starts no goroutine.
// internal/faultfs wraps both devices unchanged.
package filestore

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Options configures a Store. The zero value is usable: 1 KiB pages and
// DefaultSegmentBytes log segments.
type Options struct {
	// PageSize is the page size in bytes for a newly created store
	// (default 1024). On reopen the persisted master block is
	// authoritative: zero means "whatever the store has", and a non-zero
	// mismatch is an error.
	PageSize int
	// SegmentBytes is the log segment granularity for a newly created
	// store; on reopen the persisted log metadata is authoritative.
	SegmentBytes int
	// Deprecated: ignored; the store keeps no page cache (the vm pool is
	// the only buffer). Kept only for the frozen benchmark harness, which
	// sets it.
	CachePages int
}

// Store is an open file-backed device pair rooted at one directory.
type Store struct {
	Dir  string
	Disk *Disk
	Log  *Log
}

// Open opens (or creates) a store at dir. Reopening an existing directory
// re-parses the slot file and the log segments, delivering any torn log
// tail as a repairable fragment.
func Open(dir string, o Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	fm := &fileMetrics{}
	disk, err := openDisk(dir, o.PageSize, fm)
	if err != nil {
		return nil, err
	}
	log, err := openLog(filepath.Join(dir, "log"), o.SegmentBytes, fm)
	if err != nil {
		disk.Close()
		return nil, err
	}
	return &Store{Dir: dir, Disk: disk, Log: log}, nil
}

// IsFormatted reports whether dir holds an initialized store (a valid
// master block with the Formatted bit): the "reopen, don't format" signal
// for open/recover entry points.
func IsFormatted(dir string) bool {
	raw, err := os.ReadFile(filepath.Join(dir, "master.dat"))
	if err != nil {
		return false
	}
	m, err := decodeMaster(raw)
	return err == nil && m.Formatted
}

// Close forces the log tail and fdatasyncs and closes both files.
func (s *Store) Close() error {
	err := s.Log.Close()
	if derr := s.Disk.Close(); err == nil {
		err = derr
	}
	return err
}

// Abandon releases the store the way a process kill does, for in-process
// crash simulation: the file descriptors close with no force and no
// fdatasync — a crash must not make anything durable that was not. Call it
// after the log's Crash/CrashTorn, which drops the un-forced tail; every
// completed page write is already in the OS, as a kill would leave it. The
// devices are dead afterwards; only a fresh Open of the directory goes on.
func (s *Store) Abandon() {
	s.Log.release()
	s.Disk.close(false)
}

// atomicWriteFile replaces path with data atomically: tmp + fsync +
// rename + directory fsync, so a kill at any instant leaves either the
// old file or the new one, never a torn mix.
func atomicWriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	df, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer df.Close()
	return df.Sync()
}

// copyFileRange copies the first size bytes of src (an open file) to a
// new file at dst.
func copyFileRange(src *os.File, dst string, size int64) error {
	out, err := os.OpenFile(dst, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer out.Close()
	if size > 0 {
		if _, err := io.Copy(out, io.NewSectionReader(src, 0, size)); err != nil {
			return fmt.Errorf("copy %s: %w", dst, err)
		}
	}
	return nil
}
