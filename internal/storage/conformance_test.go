package storage_test

import (
	"reflect"
	"testing"

	"stableheap/internal/storage"
	"stableheap/internal/storage/storagetest"
)

// The in-memory devices are the reference implementations; running the
// conformance suite against them keeps the suite itself honest (a suite
// bug shows up here, not as a phantom filestore failure).

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

// TestLogDeviceMethodBudget is a ratchet: every method here is written
// three times (memory, files, fault wrapper) and proved by storagetest.
// Lower the bound when a method goes, never raise it.
func TestLogDeviceMethodBudget(t *testing.T) {
	const budget = 14
	if n := reflect.TypeOf((*storage.LogDevice)(nil)).Elem().NumMethod(); n > budget {
		t.Fatalf("storage.LogDevice has %d methods, budget %d: express the new operation with the "+
			"ones there are (as storage.ForceAll and storage.Scan do) instead of adding one", n, budget)
	}
}

// TestPageStoreMethodBudget is the same ratchet for the page device.
func TestPageStoreMethodBudget(t *testing.T) {
	const budget = 9
	if n := reflect.TypeOf((*storage.PageStore)(nil)).Elem().NumMethod(); n > budget {
		t.Fatalf("storage.PageStore has %d methods, budget %d: a caller that can use ReadPage, "+
			"PageLSN or Pages does not need a new one", n, budget)
	}
}
