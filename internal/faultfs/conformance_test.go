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

func wrapped() storage.Backing {
	return faultfs.New(faultfs.Plan{}).Wrap(storage.NewMemBacking())
}

func TestWrappedDiskConformance(t *testing.T) {
	storagetest.RunDisk(t, func(t *testing.T, pageSize int) (*storage.Disk, storage.Backing) {
		b := wrapped()
		d, err := storage.OpenDisk(b, pageSize)
		if err != nil {
			t.Fatal(err)
		}
		return d, b
	})
}

func TestWrappedLogConformance(t *testing.T) {
	storagetest.RunLog(t, func(t *testing.T, segBytes int) (*storage.Log, storage.Backing) {
		b := wrapped()
		l, err := storage.OpenLog(b, segBytes)
		if err != nil {
			t.Fatal(err)
		}
		return l, b
	})
}

func TestWrappedReopenConformance(t *testing.T) {
	storagetest.RunReopen(t, func(t *testing.T) (disk, log storage.Backing) {
		in := faultfs.New(faultfs.Plan{})
		return in.Wrap(storage.NewMemBacking()), in.Wrap(storage.NewMemBacking())
	})
}
