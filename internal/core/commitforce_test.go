package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stableheap/internal/faultfs"
	"stableheap/internal/storage"
	"stableheap/internal/wal"
	"stableheap/internal/word"
)

// Group commit is wal.Manager.Force's leader/follower force: every commit
// parks on it with no latch held. These tests drive it through the heap.

func forceCfg() Config {
	c := smallCfg()
	c.LockWait = 250 * time.Millisecond
	return c
}

// openSlow opens a heap whose log force takes delay.
func openSlow(delay time.Duration) *Heap {
	c := forceCfg()
	return OpenOn(c, storage.NewDisk(c.PageSize), faultfs.NewSlowLog(storage.NewLog(c.LogSegBytes), delay))
}

// seedSlots commits one object into each of the first n root slots.
func seedSlots(t *testing.T, hp *Heap, n int) {
	t.Helper()
	tr := hp.Begin()
	for w := 0; w < n; w++ {
		obj, err := tr.Alloc(1, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.SetRoot(w, obj); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Commit(); err != nil {
		t.Fatal(err)
	}
}

// storeAndCommit commits v into the object in root slot w. Committers on
// different slots share no write lock (the root array is only read).
func storeAndCommit(hp *Heap, w int, v uint64) error {
	tr := hp.Begin()
	obj, err := tr.Root(w)
	if err == nil {
		err = tr.SetData(obj, 0, v)
	}
	if err != nil {
		tr.Abort()
		return err
	}
	return tr.Commit()
}

// commitStores runs perWorker store-and-commit transactions on each of
// workers goroutines, each on its own slot's object.
func commitStores(t *testing.T, hp *Heap, workers, perWorker int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if err := storeAndCommit(hp, w, uint64(w*100+i)); err != nil && !errors.Is(err, ErrConflict) {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

// TestGroupCommitAmortizesForces: eight committers over a device whose
// force is slow share it — at most one device force per two commits —
// while every commit remains durable across a crash.
func TestGroupCommitAmortizesForces(t *testing.T) {
	hp := openSlow(500 * time.Microsecond)
	const workers = 8
	seedSlots(t, hp, workers)
	forces0, commits0 := hp.logDev.Stats().Forces, hp.TxStats().Committed
	commitStores(t, hp, workers, 10)
	forces, commits := hp.logDev.Stats().Forces-forces0, hp.TxStats().Committed-commits0
	if commits == 0 || 2*forces > commits {
		t.Fatalf("the force was not shared: %d forces for %d commits", forces, commits)
	}
	m := hp.Metrics()
	if b := m.Histograms["wal_force_batch"]; b.Max < 2 {
		t.Fatalf("wal_force_batch never saw a shared force: %+v", b)
	}
	if w := m.Histograms["wal_force_wait_ns"]; w.Count == 0 {
		t.Fatal("wal_force_wait_ns saw no follower")
	}

	// Durability: crash and verify the last committed value per slot.
	disk, logDev := hp.Crash()
	hp2, err := Recover(forceCfg(), disk, logDev)
	if err != nil {
		t.Fatal(err)
	}
	tr := hp2.Begin()
	defer tr.Abort()
	for w := 0; w < workers; w++ {
		r, err := tr.Root(w)
		if err != nil {
			t.Fatal(err)
		}
		if r == nil {
			t.Fatalf("slot %d lost a committed store", w)
		}
		v, err := tr.Data(r, 0)
		if err != nil {
			t.Fatal(err)
		}
		if v/100 != uint64(w) {
			t.Fatalf("slot %d holds foreign value %d", w, v)
		}
	}
}

// TestGroupCommitSingleCommitter: a lone committer leads its own force at
// once — exactly one device force per commit, no window to wait out — and
// its commit is durable.
func TestGroupCommitSingleCommitter(t *testing.T) {
	hp := openSlow(100 * time.Microsecond)
	seedSlots(t, hp, 1)
	forces0, commits0 := hp.logDev.Stats().Forces, hp.TxStats().Committed
	commitStores(t, hp, 1, 20)
	forces, commits := hp.logDev.Stats().Forces-forces0, hp.TxStats().Committed-commits0
	if commits != 20 || forces != commits {
		t.Fatalf("%d forces for %d commits, want exactly one each", forces, commits)
	}
	disk, logDev := hp.Crash()
	hp2, err := Recover(forceCfg(), disk, logDev)
	if err != nil {
		t.Fatal(err)
	}
	tr2 := hp2.Begin()
	defer tr2.Abort()
	r, _ := tr2.Root(0)
	if v, _ := tr2.Data(r, 0); v != 19 {
		t.Fatalf("lone commit not durable: slot 0 holds %d", v)
	}
}

// gatedLog, once armed, holds every force inside the device until released.
type gatedLog struct {
	storage.LogDevice
	armed   atomic.Bool
	entered chan struct{} // one token per force held
	release chan struct{} // closed to let them through
}

func (l *gatedLog) Force(lsn word.LSN) {
	if lsn >= l.StableLSN() && l.armed.Load() {
		l.entered <- struct{}{}
		<-l.release
	}
	l.LogDevice.Force(lsn)
}

// volatileCommits counts the commit records in the volatile log.
func volatileCommits(hp *Heap) (n int) {
	hp.log.Scan(hp.log.StableLSN(), false, func(_ word.LSN, r wal.Record) bool {
		if r.Type() == wal.TCommit {
			n++
		}
		return true
	})
	return n
}

// TestGroupCommitCloseReleasesWaiters: Close and Crash while committers are
// parked on a force — one leading it inside the device, one following —
// wait for those commits instead of aborting or tearing them: both are
// acknowledged, and both survive.
func TestGroupCommitCloseReleasesWaiters(t *testing.T) {
	for _, shutdown := range []string{"close", "crash"} {
		t.Run(shutdown, func(t *testing.T) {
			c := forceCfg()
			dev := &gatedLog{LogDevice: storage.NewLog(c.LogSegBytes),
				entered: make(chan struct{}), release: make(chan struct{})}
			hp := OpenOn(c, storage.NewDisk(c.PageSize), dev)
			seedSlots(t, hp, 2)
			dev.armed.Store(true)

			done := make(chan error, 2)
			go func() { done <- storeAndCommit(hp, 0, 7) }()
			<-dev.entered // the leader is inside the device force
			go func() { done <- storeAndCommit(hp, 1, 8) }()
			for volatileCommits(hp) < 2 {
				time.Sleep(time.Millisecond) // until the follower's commit record is logged too
			}

			var disk storage.PageStore
			var logDev storage.LogDevice
			stopped := make(chan struct{})
			go func() {
				defer close(stopped)
				if shutdown == "close" {
					hp.Close()
					disk, logDev = hp.Devices()
				} else {
					disk, logDev = hp.Crash()
				}
			}()
			select {
			case <-stopped:
				t.Fatalf("%s finished with a commit still parked on its force", shutdown)
			case <-time.After(20 * time.Millisecond):
			}
			dev.armed.Store(false)
			close(dev.release)
			for i := 0; i < 2; i++ {
				select {
				case err := <-done:
					if err != nil {
						t.Fatal(err)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("parked committer never released")
				}
			}
			<-stopped

			hp2, err := Recover(c, disk, logDev)
			if err != nil {
				t.Fatal(err)
			}
			tr := hp2.Begin()
			defer tr.Abort()
			for slot := 0; slot < 2; slot++ {
				r, err := tr.Root(slot)
				if err != nil || r == nil {
					t.Fatalf("slot %d: acknowledged commit lost (%v)", slot, err)
				}
				if v, _ := tr.Data(r, 0); v != uint64(7+slot) {
					t.Fatalf("slot %d holds %d", slot, v)
				}
			}
		})
	}
}
