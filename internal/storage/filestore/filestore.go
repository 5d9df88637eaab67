// Package filestore is the OS backing of the one storage.Disk and
// storage.Log: a directory of real files, with fdatasync as Sync and
// tmp + fsync + rename as the atomic master and metadata replace. It is the
// backend where process exit is not equivalent to a crash — see the layout
// comments on storage.Disk and storage.Log for the sync ordering rules and
// the crash model, and DESIGN.md §14 for the full design.
//
// A Store owns one directory:
//
//	<dir>/
//	  master.dat   recovery anchor (atomic rename updates)
//	  pages.dat    sparse slot file, one self-validating slot per page
//	  log/         segmented record log + metadata
//
// A Clone of a backing copies its files into a fresh directory under
// clones/ in the backing's directory (the crash harness's twin); whoever
// cloned removes the copy.
//
// The page store is the backing of the vm pool and caches nothing itself:
// a page write is a pwrite of its slot, a read a pread, and the barrier an
// fdatasync plus the master write. The store starts no goroutine.
package filestore

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"stableheap/internal/storage"
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

// DefaultSegmentBytes is a fresh directory's segment size when none is
// given. The active file rolls only between forces, once it holds a segment,
// so a segment smaller than a force costs a file creation (and later an
// unlink) per force: a heap's set-up forces hundreds of KiB at a time. The
// in-memory log keeps storage.DefaultSegmentSize, 64 KiB; its segments
// cost no file.
const DefaultSegmentBytes = 1 << 20

// Store is an open file-backed device pair rooted at one directory.
type Store struct {
	Dir  string
	Disk *storage.Disk
	Log  *storage.Log
}

// Backings returns the two backings one heap lives in, the page store's
// and the log's: dir and dir/log, created if absent. An empty dir names no
// directory: two fresh memory backings.
func Backings(dir string) (db, lb storage.Backing, err error) {
	if dir == "" {
		return storage.NewMemBacking(), storage.NewMemBacking(), nil
	}
	if db, err = NewBacking(dir); err == nil {
		lb, err = NewBacking(filepath.Join(dir, "log"))
	}
	return db, lb, err
}

// Open opens (or creates) a store at dir. Reopening an existing directory
// re-parses the slot file and the log segments, and cuts off a torn log
// tail there (see storage.OpenLog).
func Open(dir string, o Options) (*Store, error) {
	db, lb, err := Backings(dir)
	if err != nil {
		return nil, err
	}
	disk, err := storage.OpenDisk(db, o.PageSize)
	if err != nil {
		return nil, err
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	log, err := storage.OpenLog(lb, o.SegmentBytes)
	if err != nil {
		disk.Close()
		return nil, err
	}
	return &Store{Dir: dir, Disk: disk, Log: log}, nil
}

// Close forces the log tail and fdatasyncs and closes both files.
func (s *Store) Close() error {
	err := s.Log.Close()
	if derr := s.Disk.Close(); err == nil {
		err = derr
	}
	return err
}

// backing is a directory as a storage.Backing.
type backing struct{ dir string }

// NewBacking returns the directory dir, created if absent, as a
// storage.Backing.
func NewBacking(dir string) (storage.Backing, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &backing{dir: dir}, nil
}

func (b *backing) path(name string) string { return filepath.Join(b.dir, name) }

func (b *backing) Open(name string, truncate bool) (storage.File, error) {
	flag := os.O_RDWR | os.O_CREATE
	if truncate {
		flag |= os.O_TRUNC
	}
	f, err := os.OpenFile(b.path(name), flag, 0o644)
	if err != nil {
		return nil, err
	}
	return file{f}, nil
}

// List returns the regular files only: clones/ is a directory.
func (b *backing) List(prefix string) ([]string, error) {
	ents, err := os.ReadDir(b.dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if e.Type().IsRegular() && strings.HasPrefix(e.Name(), prefix) {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

func (b *backing) Remove(name string) error             { return os.Remove(b.path(name)) }
func (b *backing) ReadBlob(name string) ([]byte, error) { return os.ReadFile(b.path(name)) }
func (b *backing) Replace(name string, data []byte) error {
	return atomicWriteFile(b.path(name), data)
}

// Clone copies every file into a fresh directory under <dir>/clones, which
// the caller removes once it is done with the copy.
func (b *backing) Clone() (storage.Backing, error) {
	names, err := b.List("")
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(b.path("clones"), 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(b.path("clones"), "")
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		if err := copyFile(b.path(name), filepath.Join(dir, name)); err != nil {
			return nil, err
		}
	}
	return &backing{dir: dir}, nil
}

// file is an *os.File as a storage.File: Sync is fdatasync.
type file struct{ *os.File }

func (f file) Sync() error { return fdatasync(f.File) }

func (f file) Size() (int64, error) {
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
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

// copyFile copies the file at src to a new file at dst.
func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.OpenFile(dst, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer out.Close()
	if _, err := io.Copy(out, in); err != nil {
		return fmt.Errorf("copy %s: %w", dst, err)
	}
	return nil
}
