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
	if got := dev.Stats().Forces; got != 1 {
		t.Fatalf("%d device forces with one in flight and two callers parked, want 1", got)
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
	if batch := m.ForceBatchHist(); batch.Count != 2 || batch.Max != 2 || batch.Sum != 3 {
		t.Fatalf("wal_force_batch = %+v, want forces releasing 2 and 1 callers", batch)
	}
	if wait := m.ForceWaitHist(); wait.Count != 1 {
		t.Fatalf("wal_force_wait_ns counted %d followers, want 1 (b)", wait.Count)
	}
	m.Force(a) // already stable: neither a force nor a wait
	if dev.Stats().Forces != 2 || m.ForceHist().Count != 2 {
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

	if got := dev.Stats().Forces; got != 3 || !m.IsStable(c) {
		t.Fatalf("%d device forces for three alternating callers (c stable: %v), want 3", got, m.IsStable(c))
	}
	if batch := m.ForceBatchHist(); batch.Count != 3 || batch.Max != 1 {
		t.Fatalf("wal_force_batch = %+v, want three forces of one caller each", batch)
	}
}
