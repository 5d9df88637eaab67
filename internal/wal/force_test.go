package wal

import (
	"errors"
	"sync"
	"testing"
	"time"

	"stableheap/internal/faultfs"
	"stableheap/internal/storage"
	"stableheap/internal/word"
)

// hookedLog returns an empty log in memory whose every segment sync first
// calls hook (faultfs.OnSync): a hook that fails fails the force, one that
// blocks holds the force on the platter — its batch taken, the stable LSN
// not yet moved.
func hookedLog(t *testing.T, hook func() error) *storage.Log {
	t.Helper()
	l, err := storage.OpenLog(faultfs.OnSync(storage.NewMemBacking(), hook), 0)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// gateLog is a log whose force takes its batch, then sits "on the
// platter" until the test lets it finish: StableLSN moves only then.
type gateLog struct {
	*storage.Log
	entered chan struct{} // one token per force on the platter
	release chan struct{} // one token lets one force finish
}

func newGateLog(t *testing.T) *gateLog {
	g := &gateLog{entered: make(chan struct{}), release: make(chan struct{})}
	g.Log = hookedLog(t, func() error {
		g.entered <- struct{}{}
		<-g.release
		return nil
	})
	return g
}

func (m *Manager) parkedCount() int {
	m.fmu.Lock()
	defer m.fmu.Unlock()
	return len(m.parked)
}

func commitRec(id int) Record { return CommitRec{TxHdr: TxHdr{TxID: word.TxID(id)}} }

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
	dev := newGateLog(t)
	m := NewManager(dev.Log)
	a := m.Append(commitRec(1))
	b := m.Append(commitRec(2))

	var wg sync.WaitGroup
	force := func(lsn word.LSN) {
		wg.Add(1)
		go func() { defer wg.Done(); m.Force(lsn) }()
	}
	force(a)
	<-dev.entered // a's force holds the batch {a, b}

	var c word.LSN
	within(t, "Append", func() { c = m.Append(commitRec(3)) })
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
	if got := dev.Stats().Forces; got != 0 {
		t.Fatalf("%d log forces done with the first on the platter and two callers parked, want 0", got)
	}

	dev.release <- struct{}{} // a's force finishes: a and b are stable, c is not
	<-dev.entered             // ... so c leads the second force
	if !m.IsStable(b) || m.IsStable(c) {
		t.Fatalf("after the first force: IsStable(b)=%v IsStable(c)=%v", m.IsStable(b), m.IsStable(c))
	}
	dev.release <- struct{}{}
	wg.Wait()

	if got := dev.Stats().Forces; got != 2 {
		t.Fatalf("%d device forces for three callers, want 2", got)
	}
	if !m.IsStable(c) {
		t.Fatal("c not stable after its own force")
	}
	if batch := m.Met.Batch.Snapshot(); batch.Count != 2 || batch.Max != 2 || batch.Sum != 3 {
		t.Fatalf("wal_force_batch = %+v, want forces releasing 2 and 1 callers", batch)
	}
	if wait := m.Met.ForceWait.Snapshot(); wait.Count != 1 {
		t.Fatalf("wal_force_wait_ns counted %d followers, want 1 (b)", wait.Count)
	}
	m.Force(a) // already stable: neither a force nor a wait
	if dev.Stats().Forces != 2 || m.Met.Force.Snapshot().Count != 2 {
		t.Fatal("forcing a stable LSN reached the device")
	}
}

// TestForceLeaderPanicFreesTheGate: a device error unwinds through the
// leader without leaving the force gate closed, so the next caller leads a
// retry instead of parking forever.
func TestForceLeaderPanicFreesTheGate(t *testing.T) {
	failed := false
	m := NewManager(hookedLog(t, func() error { // the first sync fails, as an injected or real I/O error does
		if !failed {
			failed = true
			return errors.New("sync failed")
		}
		return nil
	}))
	lsn := m.Append(commitRec(1))
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

// TestForceBatchClosesWhenTheCallersSay: what a force covers is fixed when
// its leader takes the gate, or when the force before it ends with callers
// still volatile — not when the log gets round to taking its tail. So a
// record appended in between waits for the next force however slow the
// leader's wake-up or the log was, and the forces a set of callers costs
// does not move with either. The log is made late by a force the test
// issues itself and holds in its sync: the Manager's force queues behind
// it, and takes its batch only once it ends.
func TestForceBatchClosesWhenTheCallersSay(t *testing.T) {
	dev := newGateLog(t)
	m := NewManager(dev.Log)
	var wg sync.WaitGroup
	goForce := func(force func(word.LSN), lsn word.LSN) {
		wg.Add(1)
		go func() { defer wg.Done(); force(lsn) }()
	}
	until := func(cond func() bool) {
		for !cond() {
			time.Sleep(100 * time.Microsecond)
		}
	}
	gate := func(fn func() bool) bool { m.fmu.Lock(); defer m.fmu.Unlock(); return fn() }

	x := m.Append(commitRec(10))
	goForce(dev.Force, x)
	<-dev.entered // the log is busy: x's force holds it
	a := m.Append(commitRec(1))
	goForce(m.Force, a)
	until(func() bool { return gate(func() bool { return m.forcing }) }) // a leads; its batch closed at a
	y := m.Append(commitRec(20))
	b := m.Append(commitRec(2))
	goForce(m.Force, b)
	until(func() bool { return m.parkedCount() == 1 })
	dev.release <- struct{}{} // x's force ends; a's takes its batch with y and b already spooled
	<-dev.entered             // ... and is on the platter with a alone

	m.fmu.Lock() // a's force may end at the log, not yet at the gate
	dev.release <- struct{}{}
	until(func() bool { return dev.StableLSN() > a })
	goForce(dev.Force, y) // the log is busy again: y's force holds it
	<-dev.entered
	m.fmu.Unlock() // a's force ends with b volatile: b's batch closes at b
	until(func() bool { return m.Met.Force.Snapshot().Count == 1 })
	c := m.Append(commitRec(3)) // the first caller's next commit, before b's leader reached the log
	goForce(m.Force, c)
	until(func() bool { return gate(func() bool { return len(m.parked) == 1 && m.parked[0] == c }) })
	dev.release <- struct{}{} // y's force ends; b's takes its batch with c already spooled
	<-dev.entered
	if !m.IsStable(a) || m.IsStable(b) {
		t.Fatalf("after the first force: IsStable(a)=%v IsStable(b)=%v, want true false", m.IsStable(a), m.IsStable(b))
	}
	dev.release <- struct{}{}
	<-dev.entered // b's batch left c out: c leads a third
	if !m.IsStable(b) || m.IsStable(c) {
		t.Fatalf("after the second force: IsStable(b)=%v IsStable(c)=%v, want true false", m.IsStable(b), m.IsStable(c))
	}
	dev.release <- struct{}{}
	wg.Wait()

	if got := dev.Stats().Forces; got != 5 || !m.IsStable(c) {
		t.Fatalf("%d log forces for three alternating callers and the test's two (c stable: %v), want 5", got, m.IsStable(c))
	}
	if batch := m.Met.Batch.Snapshot(); batch.Count != 3 || batch.Max != 1 {
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
	dev := newGateLog(t)
	m := NewManager(dev.Log)
	m.devForce.Observe(int64(time.Minute)) // a bound no test run reaches
	var wg sync.WaitGroup
	commit := func(lsn word.LSN) {
		wg.Add(1)
		go func() { defer wg.Done(); m.ForceCommit(lsn, 2, time.Microsecond) }()
	}
	a := m.Append(commitRec(1))
	commit(a)
	awaitJoin(t, m)
	if got := dev.Stats().Forces; got != 0 {
		t.Fatalf("the leader forced %d times before its sibling came", got)
	}
	b := m.Append(commitRec(2))
	commit(b)
	<-dev.entered // the second arrival wakes the leader, whose batch takes b
	dev.release <- struct{}{}
	wg.Wait()

	if !m.IsStable(b) || dev.Stats().Forces != 1 {
		t.Fatalf("%d device forces for two joined commits (b stable: %v), want 1", dev.Stats().Forces, m.IsStable(b))
	}
	if batch := m.Met.Batch.Snapshot(); batch.Count != 1 || batch.Max != 2 {
		t.Fatalf("wal_force_batch = %+v, want one force releasing both", batch)
	}
	if m.Met.JoinWait.Snapshot().Count != 1 || m.Met.JoinTimeouts.Load() != 0 {
		t.Fatalf("join waits %d, timeouts %d, want 1 and 0", m.Met.JoinWait.Snapshot().Count, m.Met.JoinTimeouts.Load())
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
			dev := newGateLog(t)
			m := NewManager(dev.Log)
			m.devForce.Observe(int64(time.Minute))
			a := m.Append(commitRec(1))
			done := make(chan struct{})
			go func() { defer close(done); m.ForceCommit(a, c.want, c.span) }()
			<-dev.entered // no sibling: the leader reached the device alone
			dev.release <- struct{}{}
			<-done
			if m.Met.JoinWait.Snapshot().Count != 0 || !m.IsStable(a) {
				t.Fatalf("join waits %d (a stable: %v), want none", m.Met.JoinWait.Snapshot().Count, m.IsStable(a))
			}
		})
	}
}

// TestJoinTimeoutClosesTheBatch: a sibling that never comes holds the
// leader one smoothed device force and no longer; the batch then closes at
// the end of the log, so a record spooled during the wait rides the force.
func TestJoinTimeoutClosesTheBatch(t *testing.T) {
	dev := newGateLog(t)
	m := NewManager(dev.Log)
	const bound = 20 * time.Millisecond
	m.devForce.Observe(int64(bound))
	a := m.Append(commitRec(1))
	start := time.Now()
	done := make(chan struct{})
	go func() { defer close(done); m.ForceCommit(a, 2, time.Microsecond) }()
	awaitJoin(t, m)
	b := m.Append(commitRec(2)) // spooled while the leader waits; nobody forces it
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
	if m.Met.JoinTimeouts.Load() != 1 || m.Met.JoinWait.Snapshot().Count != 1 {
		t.Fatalf("timeouts %d, join waits %d, want 1 and 1", m.Met.JoinTimeouts.Load(), m.Met.JoinWait.Snapshot().Count)
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
	b := m.Append(commitRec(1))
	dev.Force(b) // the leader's force, on the device and done
	c := m.Append(commitRec(2))
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
	if batch := m.Met.Batch.Snapshot(); batch.Max != 2 {
		t.Fatalf("wal_force_batch = %+v, want the leader and the covered follower", batch)
	}
}
