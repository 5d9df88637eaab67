package faultfs_test

import (
	"testing"

	"stableheap/internal/faultfs"
	"stableheap/internal/storage"
	"stableheap/internal/storage/storagetest"
)

// An unarmed injector must be observably transparent: devices opened over
// its wrapped backings pass the exact same conformance suite as over the
// bare ones. (Armed behavior is covered by faultfs_test.go and the chaos
// harness.)

func home(*testing.T) (disk, log storage.Backing) {
	in := faultfs.New(faultfs.Plan{})
	return in.Wrap(storage.NewMemBacking()), in.Wrap(storage.NewMemBacking())
}

func TestWrappedDiskConformance(t *testing.T)   { storagetest.RunDisk(t, home) }
func TestWrappedLogConformance(t *testing.T)    { storagetest.RunLog(t, home) }
func TestWrappedReopenConformance(t *testing.T) { storagetest.RunReopen(t, home) }
