package filestore_test

import (
	"path/filepath"
	"testing"

	"stableheap/internal/storage"
	"stableheap/internal/storage/filestore"
	"stableheap/internal/storage/storagetest"
)

// The one Disk and Log over the file backing pass the same conformance
// suite as over memory — including the seeded random-op equivalence
// driver, which compares every observable after every step, and the
// restart cases.

func openStore(t *testing.T, pageSize, segBytes int) *filestore.Store {
	t.Helper()
	s, err := filestore.Open(t.TempDir(), filestore.Options{PageSize: pageSize, SegmentBytes: segBytes})
	if err != nil {
		t.Fatalf("filestore.Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// backing is the directory dir as a backing, as filestore.Open lays out
// a store: the page store in dir, the log in dir/log.
func backing(t *testing.T, dir string) storage.Backing {
	t.Helper()
	b, err := filestore.NewBacking(dir)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFileDiskConformance(t *testing.T) {
	storagetest.RunDisk(t, func(t *testing.T, pageSize int) (*storage.Disk, storage.Backing) {
		s := openStore(t, pageSize, storage.DefaultSegmentSize)
		return s.Disk, backing(t, s.Dir)
	})
}

func TestFileLogConformance(t *testing.T) {
	storagetest.RunLog(t, func(t *testing.T, segBytes int) (*storage.Log, storage.Backing) {
		s := openStore(t, 1024, segBytes)
		return s.Log, backing(t, filepath.Join(s.Dir, "log"))
	})
}

func TestFileReopenConformance(t *testing.T) {
	storagetest.RunReopen(t, func(t *testing.T) (disk, log storage.Backing) {
		dir := t.TempDir()
		return backing(t, dir), backing(t, filepath.Join(dir, "log"))
	})
}
