package storage_test

import (
	"reflect"
	"testing"

	"stableheap/internal/storage"
	"stableheap/internal/storage/storagetest"
)

// The one Disk and Log over the memory backing. The file backing runs the
// same suite in filestore, and faultfs runs it over its wrapped backings.

func home(*testing.T) (disk, log storage.Backing) {
	return storage.NewMemBacking(), storage.NewMemBacking()
}

func TestDiskConformance(t *testing.T)   { storagetest.RunDisk(t, home) }
func TestLogConformance(t *testing.T)    { storagetest.RunLog(t, home) }
func TestReopenConformance(t *testing.T) { storagetest.RunReopen(t, home) }

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
