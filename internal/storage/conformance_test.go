package storage_test

import (
	"reflect"
	"testing"

	"stableheap/internal/storage"
	"stableheap/internal/storage/storagetest"
)

// The one Disk and Log over the memory backing. The file backing runs the
// same suite in filestore, and faultfs runs it through its wrappers.

func TestDiskConformance(t *testing.T) {
	storagetest.RunPageStore(t, func(t *testing.T, pageSize int) storage.PageStore {
		return storage.NewDisk(pageSize)
	})
}

func TestLogConformance(t *testing.T) {
	storagetest.RunLogDevice(t, func(t *testing.T, segBytes int) storage.LogDevice {
		return storage.NewLog(segBytes)
	})
}

func TestReopenConformance(t *testing.T) {
	storagetest.RunReopen(t, func(t *testing.T) (disk, log storage.Backing) {
		return storage.NewMemBacking(), storage.NewMemBacking()
	})
}

// TestLogDeviceMethodBudget is a ratchet: every method here is one a
// wrapper must pass on or intercept, and storagetest proves it through
// each. Lower the bound when a method goes, never raise it.
func TestLogDeviceMethodBudget(t *testing.T) {
	const budget = 8
	if n := reflect.TypeOf((*storage.LogDevice)(nil)).Elem().NumMethod(); n > budget {
		t.Fatalf("storage.LogDevice has %d methods, budget %d: express the new operation with the "+
			"ones there are (as storage.ForceAll and storage.Scan do), or put it on *storage.Log "+
			"and reach it through Base, instead of adding one", n, budget)
	}
}

// TestPageStoreMethodBudget is the same ratchet for the page device.
func TestPageStoreMethodBudget(t *testing.T) {
	const budget = 5
	if n := reflect.TypeOf((*storage.PageStore)(nil)).Elem().NumMethod(); n > budget {
		t.Fatalf("storage.PageStore has %d methods, budget %d: a caller that can use ReadPage "+
			"or PageLSN does not need a new one, and one that needs the Disk asks storage.DiskOf", n, budget)
	}
}
