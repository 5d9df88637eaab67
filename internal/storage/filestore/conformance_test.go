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

func TestFileDiskConformance(t *testing.T) {
	storagetest.RunDisk(t, func(t *testing.T, pageSize int) *storage.Disk {
		return openStore(t, pageSize, storage.DefaultSegmentSize).Disk
	})
}

func TestFileLogConformance(t *testing.T) {
	storagetest.RunLog(t, func(t *testing.T, segBytes int) *storage.Log {
		return openStore(t, 1024, segBytes).Log
	})
}

func TestFileReopenConformance(t *testing.T) {
	storagetest.RunReopen(t, func(t *testing.T) (disk, log storage.Backing) {
		dir := t.TempDir()
		db, err := filestore.NewBacking(dir)
		if err != nil {
			t.Fatal(err)
		}
		lb, err := filestore.NewBacking(filepath.Join(dir, "log"))
		if err != nil {
			t.Fatal(err)
		}
		return db, lb
	})
}
