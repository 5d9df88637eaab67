package filestore_test

import (
	"testing"

	"stableheap/internal/storage"
	"stableheap/internal/storage/filestore"
	"stableheap/internal/storage/storagetest"
)

// The one Disk and Log over the file backing pass the same conformance
// suite as over memory — including the seeded random-op equivalence
// driver, which compares every observable after every step, and the
// restart cases.

// home is a fresh directory as filestore lays out a store: the page store
// in it, the log in its log subdirectory.
func home(t *testing.T) (disk, log storage.Backing) {
	t.Helper()
	db, lb, err := filestore.Backings(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return db, lb
}

func TestFileDiskConformance(t *testing.T)   { storagetest.RunDisk(t, home) }
func TestFileLogConformance(t *testing.T)    { storagetest.RunLog(t, home) }
func TestFileReopenConformance(t *testing.T) { storagetest.RunReopen(t, home) }
