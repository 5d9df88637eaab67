package storage_test

import (
	"reflect"
	"testing"

	"stableheap/internal/storage"
	"stableheap/internal/storage/storagetest"
)

// The one Disk and Log over the memory backing. The file backing runs the
// same suite in filestore, and faultfs runs it over its wrapped backings.

func TestDiskConformance(t *testing.T) {
	storagetest.RunDisk(t, func(t *testing.T, pageSize int) (*storage.Disk, storage.Backing) {
		b := storage.NewMemBacking()
		d, err := storage.OpenDisk(b, pageSize)
		if err != nil {
			t.Fatal(err)
		}
		return d, b
	})
}

func TestLogConformance(t *testing.T) {
	storagetest.RunLog(t, func(t *testing.T, segBytes int) (*storage.Log, storage.Backing) {
		b := storage.NewMemBacking()
		l, err := storage.OpenLog(b, segBytes)
		if err != nil {
			t.Fatal(err)
		}
		return l, b
	})
}

func TestReopenConformance(t *testing.T) {
	storagetest.RunReopen(t, func(t *testing.T) (disk, log storage.Backing) {
		return storage.NewMemBacking(), storage.NewMemBacking()
	})
}

// TestLogMethodBudget is a ratchet on the one log's surface: every
// exported method of *storage.Log is one storagetest proves on every
// backing. Lower the bound when a method goes, never raise it: express a
// new operation with the ones there are, as storage.ForceAll and
// storage.Scan do.
func TestLogMethodBudget(t *testing.T) {
	const budget = 15
	if n := reflect.TypeOf((*storage.Log)(nil)).NumMethod(); n > budget {
		t.Fatalf("*storage.Log has %d exported methods, budget %d", n, budget)
	}
}
