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
	storagetest.RunDisk(t, func(t *testing.T, pageSize int) *storage.Disk {
		return storage.NewDisk(pageSize)
	})
}

func TestLogConformance(t *testing.T) {
	storagetest.RunLog(t, func(t *testing.T, segBytes int) *storage.Log {
		return storage.NewLog(segBytes)
	})
}

func TestReopenConformance(t *testing.T) {
	storagetest.RunReopen(t, func(t *testing.T) (disk, log storage.Backing) {
		return storage.NewMemBacking(), storage.NewMemBacking()
	})
}

// TestLogDeviceMethodBudget is a ratchet: every method here is one a test
// fake or a timing model must implement or pass on, and storagetest proves
// it on the Log. Lower the bound when a method goes, never raise it.
func TestLogDeviceMethodBudget(t *testing.T) {
	const budget = 7
	if n := reflect.TypeOf((*storage.LogDevice)(nil)).Elem().NumMethod(); n > budget {
		t.Fatalf("storage.LogDevice has %d methods, budget %d: express the new operation with the "+
			"ones there are (as storage.ForceAll and storage.Scan do), or put it on *storage.Log "+
			"and reach it through Base, instead of adding one", n, budget)
	}
}
