package faultfs

import (
	"time"

	"stableheap/internal/storage"
)

// OnSync returns b with fn called before every File.Sync: an error from fn
// fails the sync, and fn blocking holds it. A Log over it has taken its
// force's batch by then and publishes the new stable LSN only once the
// sync returns; a Disk is inside its SetMaster barrier.
func OnSync(b storage.Backing, fn func() error) storage.Backing {
	return &syncBacking{Backing: b, fn: fn}
}

// Slow returns b with a fixed latency on every File.Sync — the model of a
// real disk, where the commit force, not the CPU, bounds throughput. A Log
// syncs with its mutex released, so what the scaling experiments and the
// commit-force tests measure over it, committers overlapping force waits,
// reproduces on any machine.
func Slow(b storage.Backing, delay time.Duration) storage.Backing {
	return OnSync(b, func() error { time.Sleep(delay); return nil })
}

type syncBacking struct {
	storage.Backing
	fn func() error
}

func (b *syncBacking) Open(name string, truncate bool) (storage.File, error) {
	f, err := b.Backing.Open(name, truncate)
	if err != nil {
		return nil, err
	}
	return &syncFile{File: f, fn: b.fn}, nil
}

type syncFile struct {
	storage.File
	fn func() error
}

func (f *syncFile) Sync() error {
	if err := f.fn(); err != nil {
		return err
	}
	return f.File.Sync()
}
