package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stableheap/internal/faultfs"
	"stableheap/internal/obs"
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
	return mustOpen(forceCfg(), storage.NewMemBacking(), faultfs.Slow(storage.NewMemBacking(), delay))
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
	forces0, commits0 := hp.logDev.Stats().Forces, hp.Metrics().Counter("tx_committed_total")
	commitStores(t, hp, workers, 10)
	forces, commits := hp.logDev.Stats().Forces-forces0, hp.Metrics().Counter("tx_committed_total")-commits0
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
	hp2, err := reopen(forceCfg(), disk, logDev)
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
	forces0, commits0 := hp.logDev.Stats().Forces, hp.Metrics().Counter("tx_committed_total")
	commitStores(t, hp, 1, 20)
	forces, commits := hp.logDev.Stats().Forces-forces0, hp.Metrics().Counter("tx_committed_total")-commits0
	if commits != 20 || forces != commits {
		t.Fatalf("%d forces for %d commits, want exactly one each", forces, commits)
	}
	disk, logDev := hp.Crash()
	hp2, err := reopen(forceCfg(), disk, logDev)
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

// gatedLog is a log backing that, once armed, holds every force on the
// platter until released: its batch taken, its stable LSN not yet moved.
type gatedLog struct {
	storage.Backing
	armed   atomic.Bool
	entered chan struct{} // one token per force held
	release chan struct{} // closed to let them through
}

func newGatedLog(b storage.Backing) *gatedLog {
	l := &gatedLog{entered: make(chan struct{}), release: make(chan struct{})}
	l.Backing = faultfs.OnSync(b, func() error {
		if l.armed.Load() {
			l.entered <- struct{}{}
			<-l.release
		}
		return nil
	})
	return l
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
// acknowledged, and both survive. In the joining cases the one committer
// leads while its commit shape says a sibling is coming: Close or Crash
// keeps the sibling out, so the leader waits out its bound, forces, and
// its commit is acknowledged and survives too.
func TestGroupCommitCloseReleasesWaiters(t *testing.T) {
	for _, joining := range []bool{false, true} {
		for _, shutdown := range []string{"close", "crash"} {
			name := shutdown
			if joining {
				name += "-joining"
			}
			t.Run(name, func(t *testing.T) { closeWithParkedCommits(t, shutdown, joining) })
		}
	}
}

func closeWithParkedCommits(t *testing.T, shutdown string, joining bool) {
	c := forceCfg()
	b := storage.NewMemBacking()
	if joining {
		b = faultfs.Slow(b, 10*time.Millisecond) // the join's bound
	}
	dev := newGatedLog(b)
	hp := mustOpen(c, storage.NewMemBacking(), dev)
	seedSlots(t, hp, 2)

	committers := 2
	done := make(chan error, 2)
	var timeouts0 int64
	if joining {
		commitStores(t, hp, 2, 8) // the commit shape settles: two open, short
		if open, _ := hp.txm.CommitShape(); open != 2 {
			t.Fatalf("two committers left the commit shape at %d open, want 2", open)
		}
		timeouts0 = hp.Metrics().Counter("wal_commit_join_timeouts_total")
		committers = 1
		dev.armed.Store(true)
		go func() { done <- storeAndCommit(hp, 0, 7) }()
		for volatileCommits(hp) < 1 {
			time.Sleep(100 * time.Microsecond) // until the leader's commit record is logged
		}
	} else {
		dev.armed.Store(true)
		go func() { done <- storeAndCommit(hp, 0, 7) }()
		<-dev.entered // the leader is inside the device force
		go func() { done <- storeAndCommit(hp, 1, 8) }()
		for volatileCommits(hp) < 2 {
			time.Sleep(time.Millisecond) // until the follower's commit record is logged too
		}
	}

	var disk *storage.Disk
	var logDev *storage.Log
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
	if joining {
		select {
		case <-dev.entered: // the join ended at its bound and the leader forces
		case <-time.After(5 * time.Second):
			t.Fatalf("the leader never left its join wait under %s", shutdown)
		}
	}
	select {
	case <-stopped:
		t.Fatalf("%s finished with a commit still parked on its force", shutdown)
	case <-time.After(20 * time.Millisecond):
	}
	dev.armed.Store(false)
	close(dev.release)
	for i := 0; i < committers; i++ {
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
	if joining && hp.Metrics().Counter("wal_commit_join_timeouts_total") != timeouts0+1 {
		t.Fatalf("%d join timeouts under %s, want the leader's one", hp.Metrics().Counter("wal_commit_join_timeouts_total")-timeouts0, shutdown)
	}

	hp2, err := reopen(c, disk, logDev)
	if err != nil {
		t.Fatal(err)
	}
	tr := hp2.Begin()
	defer tr.Abort()
	for slot := 0; slot < committers; slot++ {
		r, err := tr.Root(slot)
		if err != nil || r == nil {
			t.Fatalf("slot %d: acknowledged commit lost (%v)", slot, err)
		}
		if v, _ := tr.Data(r, 0); v != uint64(7+slot) {
			t.Fatalf("slot %d holds %d", slot, v)
		}
	}
}

// TestGroupCommitTwoCommittersShare: two closed-loop committers over a slow
// log share its forces. Each is an update transaction open beside the
// other, and each is short next to the force, so a leader waits for its
// sibling's commit record (wal.Manager.ForceCommit's join) instead of
// forcing alone while the sibling parks behind it.
func TestGroupCommitTwoCommittersShare(t *testing.T) {
	hp := openSlow(time.Millisecond)
	seedSlots(t, hp, 2)
	commitStores(t, hp, 2, 20) // the commit shape settles: two open, short
	forces0, commits0 := hp.logDev.Stats().Forces, hp.Metrics().Counter("tx_committed_total")
	commitStores(t, hp, 2, 100)
	forces, commits := hp.logDev.Stats().Forces-forces0, hp.Metrics().Counter("tx_committed_total")-commits0
	if commits != 200 || 10*forces > 6*commits {
		t.Fatalf("%d forces for %d commits of two committers, want ≤ 0.6 per commit", forces, commits)
	}
	if hp.Metrics().Hist("wal_commit_join_wait_ns").Count == 0 {
		t.Fatal("no commit leader joined its sibling")
	}
}

// TestJoinReadOnlyTransactionHoldsNoCommit: a read-only transaction left
// open beside a lone committer is no sibling to wait for — it never logs an
// update, so the commit shape says one — and every commit forces at once.
// Its own commit then appends no record and forces nothing.
func TestJoinReadOnlyTransactionHoldsNoCommit(t *testing.T) {
	hp := openSlow(time.Millisecond)
	seedSlots(t, hp, 2)
	reader := hp.Begin()
	defer reader.Abort()
	if r, err := reader.Root(1); err != nil || r == nil {
		t.Fatalf("reader: %v", err)
	}
	forces0, commits0 := hp.logDev.Stats().Forces, hp.Metrics().Counter("tx_committed_total")
	commitStores(t, hp, 1, 20)
	forces, commits := hp.logDev.Stats().Forces-forces0, hp.Metrics().Counter("tx_committed_total")-commits0
	if n := hp.Metrics().Hist("wal_commit_join_wait_ns").Count; n != 0 || forces != commits {
		t.Fatalf("%d join waits, %d forces for %d commits beside a reader, want 0 and one each", n, forces, commits)
	}
	end, forces0 := hp.log.EndLSN(), hp.logDev.Stats().Forces
	if err := reader.Commit(); err != nil {
		t.Fatal(err)
	}
	if hp.log.EndLSN() != end || hp.logDev.Stats().Forces != forces0 {
		t.Fatalf("read-only commit appended %d bytes and forced %d times, want neither",
			hp.log.EndLSN()-end, hp.logDev.Stats().Forces-forces0)
	}
}

// TestJoinSiblingBlockedOnTheLeadersLock: the sibling a leader waits for is
// blocked on the leader's own lock, so it cannot commit before the leader
// does. The leader waits out one bound, forces alone and releases the lock;
// the sibling then commits, long before its lock wait would have failed.
func TestJoinSiblingBlockedOnTheLeadersLock(t *testing.T) {
	hp := openSlow(time.Millisecond)
	seedSlots(t, hp, 2)
	commitStores(t, hp, 2, 20)
	if open, _ := hp.txm.CommitShape(); open != 2 {
		t.Fatalf("two committers left the commit shape at %d open, want 2", open)
	}
	timeouts0 := hp.Metrics().Counter("wal_commit_join_timeouts_total")

	leader := hp.Begin()
	obj, err := leader.Root(0)
	if err == nil {
		err = leader.SetData(obj, 0, 1)
	}
	if err != nil {
		t.Fatal(err)
	}
	sibling := make(chan error, 1)
	go func() { sibling <- storeAndCommit(hp, 0, 2) }() // waits for the leader's write lock
	for deadline := time.Now().Add(5 * time.Second); hp.Metrics().Counter("lock_conflicts_total") == 0; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("the sibling never waited for the leader's lock")
		}
	}
	start := time.Now()
	if err := leader.Commit(); err != nil {
		t.Fatal(err)
	}
	took := time.Since(start)
	if err := <-sibling; err != nil {
		t.Fatalf("the sibling's commit failed behind the leader's join: %v", err)
	}
	if hp.Metrics().Counter("wal_commit_join_timeouts_total") == timeouts0 {
		t.Fatal("the leader's join did not time out, yet its sibling could not commit")
	}
	if took > forceCfg().LockWait/2 {
		t.Fatalf("the leader's commit took %v; one bound is about a force", took)
	}
}

// convoyTrips counts the commit-force-convoy watchdog's trips in the
// flight recorder.
func convoyTrips(hp *Heap) (n int) {
	for _, ev := range hp.FlightEvents() {
		if ev.Kind == obs.EvWatchdog && ev.A == obs.WdConvoy {
			n++
		}
	}
	return n
}

// TestJoinWatchdogConvoy: the commit-force-convoy rule watches the share of
// join waits that time out. Sixteen committers sharing every force is the
// healthy case, however large the batches, and does not trip it; a lone
// committer beside an update transaction that stays open waits for a
// sibling that never comes, every time, and does.
func TestJoinWatchdogConvoy(t *testing.T) {
	open := func(delay time.Duration) *Heap {
		c := forceCfg()
		c.FlightRecorder = true
		c.WatchdogInterval = 20 * time.Millisecond
		return mustOpen(c, storage.NewMemBacking(), faultfs.Slow(storage.NewMemBacking(), delay))
	}
	t.Run("sixteen committers", func(t *testing.T) {
		hp := open(5 * time.Millisecond)
		defer hp.Close()
		seedSlots(t, hp, 16)
		commitStores(t, hp, 16, 40)
		if b := hp.Metrics().Histograms["wal_force_batch"]; b.Max < 16 || hp.Metrics().Hist("wal_commit_join_wait_ns").Count == 0 {
			t.Fatalf("sixteen committers never joined into one force: wal_force_batch %+v", b)
		}
		if n := convoyTrips(hp); n != 0 {
			t.Fatalf("the convoy rule tripped %d times on healthy sharing (%d of %d join waits timed out)",
				n, hp.Metrics().Counter("wal_commit_join_timeouts_total"), hp.Metrics().Hist("wal_commit_join_wait_ns").Count)
		}
	})
	t.Run("sibling never arrives", func(t *testing.T) {
		hp := open(time.Millisecond)
		defer hp.Close()
		seedSlots(t, hp, 2)
		idle := hp.Begin() // an update transaction that never commits
		obj, err := idle.Root(1)
		if err == nil {
			err = idle.SetData(obj, 0, 1)
		}
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for convoyTrips(hp) == 0 && time.Now().Before(deadline) {
			commitStores(t, hp, 1, 10)
		}
		if convoyTrips(hp) == 0 {
			t.Fatalf("no convoy trip after %d of %d join waits timed out", hp.Metrics().Counter("wal_commit_join_timeouts_total"), hp.Metrics().Hist("wal_commit_join_wait_ns").Count)
		}
		idle.Abort()
	})
}
