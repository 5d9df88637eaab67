package wal

import (
	"sync"
	"testing"
	"time"

	"stableheap/internal/storage"
	"stableheap/internal/word"
)

// gateLog is a log device whose force takes its batch, then sits "on the
// platter" until the test lets it finish: StableLSN moves only then.
type gateLog struct {
	storage.LogDevice
	stable  storage.AtomicLSN
	entered chan struct{} // one token per force on the platter
	release chan struct{} // one token lets one force finish
}

func newGateLog() *gateLog {
	g := &gateLog{LogDevice: storage.NewLog(0), entered: make(chan struct{}), release: make(chan struct{})}
	g.stable.Store(1)
	return g
}

func (g *gateLog) StableLSN() word.LSN { return g.stable.Load() }

func (g *gateLog) Force(lsn word.LSN) {
	if lsn < g.StableLSN() {
		return
	}
	g.LogDevice.Force(lsn) // the batch: whatever is spooled now
	through := g.LogDevice.StableLSN()
	g.entered <- struct{}{}
	<-g.release
	g.stable.Store(through)
}

func (m *Manager) parkedCount() int {
	m.fmu.Lock()
	defer m.fmu.Unlock()
	return len(m.parked)
}

func begin(id int) Record { return BeginRec{TxHdr: TxHdr{TxID: word.TxID(id)}} }

// within fails the test if fn has not returned in five seconds.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); fn() }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s blocked behind a force in flight", what)
	}
}

// TestForceSharedOutsideMutex drives the one force path over a device whose
// force stays in flight as long as the test likes. While it does, Append,
// ReadAt, StableLSN, EndLSN and IsStable all return; a caller whose record
// the force in flight covers is released by it without a force of its own;
// a caller whose record was appended later leads the next force.
func TestForceSharedOutsideMutex(t *testing.T) {
	dev := newGateLog()
	m := NewManager(dev)
	a := m.Append(begin(1))
	b := m.Append(begin(2))

	var wg sync.WaitGroup
	force := func(lsn word.LSN) {
		wg.Add(1)
		go func() { defer wg.Done(); m.Force(lsn) }()
	}
	force(a)
	<-dev.entered // a's force holds the batch {a, b}

	var c word.LSN
	within(t, "Append", func() { c = m.Append(begin(3)) })
	within(t, "ReadAt", func() {
		for _, lsn := range []word.LSN{a, b, c} {
			if _, err := m.ReadAt(lsn); err != nil {
				t.Errorf("ReadAt(%d) during the force: %v", lsn, err)
			}
		}
	})
	within(t, "StableLSN/EndLSN/IsStable", func() {
		if m.StableLSN() != 1 || m.IsStable(a) || m.EndLSN() <= c {
			t.Errorf("stable=%d end=%d IsStable(a)=%v before the force finished", m.StableLSN(), m.EndLSN(), m.IsStable(a))
		}
	})

	force(b) // covered by the force in flight: a follower
	force(c) // appended after it took its batch: must lead the next one
	for m.parkedCount() < 2 {
		time.Sleep(time.Millisecond)
	}
	if got := dev.Base().Stats().Forces; got != 1 {
		t.Fatalf("%d device forces with one in flight and two callers parked, want 1", got)
	}

	dev.release <- struct{}{} // a's force finishes: a and b are stable, c is not
	<-dev.entered             // ... so c leads the second force
	if !m.IsStable(b) || m.IsStable(c) {
		t.Fatalf("after the first force: IsStable(b)=%v IsStable(c)=%v", m.IsStable(b), m.IsStable(c))
	}
	dev.release <- struct{}{}
	wg.Wait()

	if got := dev.Base().Stats().Forces; got != 2 {
		t.Fatalf("%d device forces for three callers, want 2", got)
	}
	if !m.IsStable(c) {
		t.Fatal("c not stable after its own force")
	}
	if batch := m.ForceBatchHist(); batch.Count != 2 || batch.Max != 2 || batch.Sum != 3 {
		t.Fatalf("wal_force_batch = %+v, want forces releasing 2 and 1 callers", batch)
	}
	if wait := m.ForceWaitHist(); wait.Count != 1 {
		t.Fatalf("wal_force_wait_ns counted %d followers, want 1 (b)", wait.Count)
	}
	m.Force(a) // already stable: neither a force nor a wait
	if dev.Base().Stats().Forces != 2 || m.ForceHist().Count != 2 {
		t.Fatal("forcing a stable LSN reached the device")
	}
}

// failOnceLog panics on its first force, as an injected or real I/O error
// does.
type failOnceLog struct {
	storage.LogDevice
	failed bool
}

func (f *failOnceLog) Force(lsn word.LSN) {
	if !f.failed {
		f.failed = true
		panic(&storage.DeviceIOError{Op: "force", LSN: lsn})
	}
	f.LogDevice.Force(lsn)
}

// TestForceLeaderPanicFreesTheGate: a device error unwinds through the
// leader without leaving the force gate closed, so the next caller leads a
// retry instead of parking forever.
func TestForceLeaderPanicFreesTheGate(t *testing.T) {
	m := NewManager(&failOnceLog{LogDevice: storage.NewLog(0)})
	lsn := m.Append(begin(1))
	func() {
		defer func() {
			if _, ok := storage.AsDeviceError(recover()); !ok {
				t.Fatal("the device error did not reach the caller")
			}
		}()
		m.Force(lsn)
	}()
	within(t, "the retry", func() { m.Force(lsn) })
	if !m.IsStable(lsn) {
		t.Fatal("retry did not force")
	}
}

// lateLog is a log device whose force waits for the test before it takes
// its batch: whatever the test appends meanwhile is in the tail by then.
type lateLog struct {
	storage.LogDevice
	arrived chan struct{} // one token per force about to take its batch
	proceed chan struct{} // one token lets one force take it and finish
}

func (l *lateLog) Force(lsn word.LSN) {
	l.arrived <- struct{}{}
	<-l.proceed
	l.LogDevice.Force(lsn)
}

// TestForceBatchClosesWhenTheCallersSay: what a force covers is fixed when
// its leader takes the gate, or when the force before it ends with callers
// still volatile — not when the device gets round to taking its tail. So a
// record appended in between waits for the next force however slow the
// leader's wake-up or the device was, and the forces a set of callers
// costs does not move with either.
func TestForceBatchClosesWhenTheCallersSay(t *testing.T) {
	dev := &lateLog{LogDevice: storage.NewLog(0), arrived: make(chan struct{}), proceed: make(chan struct{})}
	m := NewManager(dev)
	var wg sync.WaitGroup
	force := func(lsn word.LSN) {
		wg.Add(1)
		go func() { defer wg.Done(); m.Force(lsn) }()
	}
	parked := func(n int) {
		for m.parkedCount() < n {
			time.Sleep(time.Millisecond)
		}
	}

	a := m.Append(begin(1))
	force(a)
	<-dev.arrived // a leads; its batch closed at a
	b := m.Append(begin(2))
	force(b)
	parked(1)
	dev.proceed <- struct{}{} // the device takes its batch with b already spooled
	<-dev.arrived             // ... yet b is volatile and leads the second force
	if !m.IsStable(a) || m.IsStable(b) {
		t.Fatalf("after the first force: IsStable(a)=%v IsStable(b)=%v, want true false", m.IsStable(a), m.IsStable(b))
	}

	c := m.Append(begin(3)) // the first caller's next commit, before b's leader reached the device
	force(c)
	parked(1)
	dev.proceed <- struct{}{}
	<-dev.arrived // the second batch closed when the first force ended: c leads a third
	if !m.IsStable(b) || m.IsStable(c) {
		t.Fatalf("after the second force: IsStable(b)=%v IsStable(c)=%v, want true false", m.IsStable(b), m.IsStable(c))
	}
	dev.proceed <- struct{}{}
	wg.Wait()

	if got := dev.Base().Stats().Forces; got != 3 || !m.IsStable(c) {
		t.Fatalf("%d device forces for three alternating callers (c stable: %v), want 3", got, m.IsStable(c))
	}
	if batch := m.ForceBatchHist(); batch.Count != 3 || batch.Max != 1 {
		t.Fatalf("wal_force_batch = %+v, want three forces of one caller each", batch)
	}
}

// awaitJoin returns once a commit leader is inside its join wait, and
// fails the test if none is within five seconds.
func awaitJoin(t *testing.T, m *Manager) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		m.fmu.Lock()
		joining := m.joinWant > 0
		m.fmu.Unlock()
		if joining {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no commit leader entered its join wait")
		}
	}
}

// TestJoinTwoCommittersShareOneForce: with two update transactions usually
// open and transactions short next to the force, the first commit to need a
// force waits for the second instead of forcing alone, and one force covers
// both.
func TestJoinTwoCommittersShareOneForce(t *testing.T) {
	dev := newGateLog()
	m := NewManager(dev)
	m.devForce.Observe(int64(time.Minute)) // a bound no test run reaches
	var wg sync.WaitGroup
	commit := func(lsn word.LSN) {
		wg.Add(1)
		go func() { defer wg.Done(); m.ForceCommit(lsn, 2, time.Microsecond) }()
	}
	a := m.Append(begin(1))
	commit(a)
	awaitJoin(t, m)
	if got := dev.Base().Stats().Forces; got != 0 {
		t.Fatalf("the leader forced %d times before its sibling came", got)
	}
	b := m.Append(begin(2))
	commit(b)
	<-dev.entered // the second arrival wakes the leader, whose batch takes b
	dev.release <- struct{}{}
	wg.Wait()

	if !m.IsStable(b) || dev.Base().Stats().Forces != 1 {
		t.Fatalf("%d device forces for two joined commits (b stable: %v), want 1", dev.Base().Stats().Forces, m.IsStable(b))
	}
	if batch := m.ForceBatchHist(); batch.Count != 1 || batch.Max != 2 {
		t.Fatalf("wal_force_batch = %+v, want one force releasing both", batch)
	}
	if m.JoinWaitHist().Count != 1 || m.JoinTimeouts() != 0 {
		t.Fatalf("join waits %d, timeouts %d, want 1 and 0", m.JoinWaitHist().Count, m.JoinTimeouts())
	}
}

// TestJoinLoneOrLongCommitterLeadsAtOnce: one update transaction usually
// open, or transactions as long as half a force, and ForceCommit is Force:
// the leader forces at once and waits for nobody.
func TestJoinLoneOrLongCommitterLeadsAtOnce(t *testing.T) {
	for _, c := range []struct {
		name string
		want int
		span time.Duration
	}{
		{"one open", 1, time.Microsecond},
		{"long transactions", 2, 30 * time.Second},
	} {
		t.Run(c.name, func(t *testing.T) {
			dev := newGateLog()
			m := NewManager(dev)
			m.devForce.Observe(int64(time.Minute))
			a := m.Append(begin(1))
			done := make(chan struct{})
			go func() { defer close(done); m.ForceCommit(a, c.want, c.span) }()
			<-dev.entered // no sibling: the leader reached the device alone
			dev.release <- struct{}{}
			<-done
			if m.JoinWaitHist().Count != 0 || !m.IsStable(a) {
				t.Fatalf("join waits %d (a stable: %v), want none", m.JoinWaitHist().Count, m.IsStable(a))
			}
		})
	}
}

// TestJoinTimeoutClosesTheBatch: a sibling that never comes holds the
// leader one smoothed device force and no longer; the batch then closes at
// the end of the log, so a record spooled during the wait rides the force.
func TestJoinTimeoutClosesTheBatch(t *testing.T) {
	dev := newGateLog()
	m := NewManager(dev)
	const bound = 20 * time.Millisecond
	m.devForce.Observe(int64(bound))
	a := m.Append(begin(1))
	start := time.Now()
	done := make(chan struct{})
	go func() { defer close(done); m.ForceCommit(a, 2, time.Microsecond) }()
	awaitJoin(t, m)
	b := m.Append(begin(2)) // spooled while the leader waits; nobody forces it
	select {
	case <-dev.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the join wait did not end at its bound")
	}
	if waited := time.Since(start); waited < bound {
		t.Fatalf("the leader forced after %v, before its %v bound", waited, bound)
	}
	dev.release <- struct{}{}
	<-done
	if !m.IsStable(b) {
		t.Fatal("the batch closed before the wait, not at the end of the log")
	}
	if m.JoinTimeouts() != 1 || m.JoinWaitHist().Count != 1 {
		t.Fatalf("timeouts %d, join waits %d, want 1 and 1", m.JoinTimeouts(), m.JoinWaitHist().Count)
	}
}

// TestJoinCoveredFollowersLeaveAtEndForce: the callers a force covers leave
// the gate as it ends, whether or not they have woken yet, and the ones it
// did not cover stay with the next batch closed behind them. A follower
// counted until it woke would make the next leader find its sibling already
// there, force alone, and then share: one force per 1.5 commits for two.
func TestJoinCoveredFollowersLeaveAtEndForce(t *testing.T) {
	dev := storage.NewLog(0)
	m := NewManager(dev)
	b := m.Append(begin(1))
	dev.Force(b) // the leader's force, on the device and done
	c := m.Append(begin(2))
	m.fmu.Lock()
	m.forcing = true
	m.parked = append(m.parked, b, c) // two followers, neither awake yet
	m.fmu.Unlock()

	m.endForce(time.Now(), time.Now())
	if len(m.parked) != 1 || m.parked[0] != c {
		t.Fatalf("parked after the force = %v, want only the uncovered %d", m.parked, c)
	}
	if !m.forcing || m.next != m.EndLSN()-1 {
		t.Fatalf("forcing=%v next=%d: the uncovered follower's batch is not closed behind it", m.forcing, m.next)
	}
	if batch := m.ForceBatchHist(); batch.Max != 2 {
		t.Fatalf("wal_force_batch = %+v, want the leader and the covered follower", batch)
	}
}
