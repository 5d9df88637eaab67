package filestore_test

import (
	"testing"

	"stableheap/internal/storage"
	"stableheap/internal/storage/filestore"
	"stableheap/internal/storage/storagetest"
)

// The file-backed devices must pass the identical conformance suite as
// the in-memory reference — including the seeded random-op equivalence
// driver, which compares every observable after every step.

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
	storagetest.RunPageStore(t, func(t *testing.T, pageSize int) storage.PageStore {
		return openStore(t, pageSize, storage.DefaultSegmentSize).Disk
	})
}

func TestFileLogConformance(t *testing.T) {
	storagetest.RunLogDevice(t, func(t *testing.T, segBytes int) storage.LogDevice {
		return openStore(t, 1024, segBytes).Log
	})
}
