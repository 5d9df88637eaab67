package recovery

import (
	"sync/atomic"
	"testing"
	"time"

	"stableheap/internal/storage"
	"stableheap/internal/vm"
	"stableheap/internal/wal"
)

// parkingBacking is a memory backing whose files' Close, once armed,
// parks until release is closed: on real files the last close of an
// unlinked segment frees its blocks, and can take milliseconds.
type parkingBacking struct {
	storage.Backing
	armed   atomic.Bool
	parked  chan struct{} // signalled by the first Close that parks
	release chan struct{}
}

func (b *parkingBacking) Open(name string, truncate bool) (storage.File, error) {
	f, err := b.Backing.Open(name, truncate)
	if err != nil {
		return nil, err
	}
	return parkingFile{f, b}, nil
}

type parkingFile struct {
	storage.File
	b *parkingBacking
}

func (f parkingFile) Close() error {
	if f.b.armed.Load() {
		select {
		case f.b.parked <- struct{}{}:
		default:
		}
		<-f.b.release
	}
	return f.File.Close()
}

// A truncation whose segment closes are slow holds back neither a force
// nor a checkpoint promotion: it closes the removed files after the log's
// force mutex is released, and truncates with the checkpointer's mutex
// released.
func TestTruncateCloseHoldsNoForceOrPromote(t *testing.T) {
	b := &parkingBacking{Backing: storage.NewMemBacking(),
		parked: make(chan struct{}, 1), release: make(chan struct{})}
	dev, err := storage.OpenLog(b, 512)
	if err != nil {
		t.Fatal(err)
	}
	log := wal.NewManager(dev)
	mem := vm.New(vm.Config{PageSize: ps}, storage.NewDisk(ps), log)
	ck := bootstrap(mem, log)
	for i := 0; i < 64; i++ { // a force fills one file: several files
		log.Force(log.Append(wal.GCEndRec{Epoch: uint64(i)}))
	}
	ck.Take(wal.CheckpointRec{NextTx: 1})
	ck.ForcePromote()

	b.armed.Store(true)
	truncated := make(chan struct{})
	go func() {
		defer close(truncated)
		ck.TruncateLog()
	}()
	defer func() {
		close(b.release)
		<-truncated
	}()
	select {
	case <-b.parked:
	case <-time.After(5 * time.Second):
		t.Fatal("the truncation closed no segment file")
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		log.Force(log.Append(wal.GCEndRec{}))
		ck.Promote()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a force and a promotion waited for a truncation's file close")
	}
}
