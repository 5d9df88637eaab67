// Package lock implements the object-granularity read/write locking of the
// stable heap's transaction model (§2.1): transactions acquire standard
// read/write locks on atomic objects and hold them to completion (strict
// two-phase locking), which makes transactions serializable.
//
// Objects are named by their current virtual address, as in the paper. When
// the collector flips and moves a locked object, it rekeys the lock table
// entry (Rekey); the addresses of locked objects are part of the root set a
// flip must translate.
//
// Deadlocks are resolved by a waits-for-graph detector: whenever a
// transaction blocks (and on every re-check while it waits) the manager
// looks for a cycle among the blocked transactions; if one exists, the
// youngest member (highest TxID) is marked as the victim and its wait
// returns ErrDeadlock, upon which the caller aborts it. The wait-limit
// timeout is kept as a backstop — a blocked Acquire still gives up after
// the manager's wait limit with ErrTimeout — but a true deadlock is broken
// as soon as its last edge forms, long before any timeout fires. A zero
// wait limit makes every conflict immediate (fast-fail; such refusals count
// as Conflicts, not Timeouts).
package lock

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"stableheap/internal/obs"
	"stableheap/internal/word"
)

// Mode is a lock mode.
type Mode uint8

// Lock modes.
const (
	Read Mode = iota
	Write
)

// String names the mode.
func (m Mode) String() string {
	if m == Read {
		return "read"
	}
	return "write"
}

// ErrTimeout is returned when a lock could not be acquired within the wait
// limit; the caller is expected to abort. This is a backstop only — real
// cycles are broken with ErrDeadlock.
var ErrTimeout = errors.New("lock: wait timed out (possible deadlock)")

// ErrDeadlock is returned to the transaction chosen as the victim of a
// waits-for cycle; the caller must abort it (retrying the same wait would
// recreate the cycle).
var ErrDeadlock = errors.New("lock: deadlock victim (waits-for cycle)")

// entry is the lock state of one object.
type entry struct {
	writer  word.TxID              // holder of the write lock, 0 if none
	readers map[word.TxID]struct{} // read-lock holders; nil until the first
}

func (e *entry) free() bool { return e.writer == 0 && len(e.readers) == 0 }

// grantable reports whether tx may acquire the lock in mode m now.
func (e *entry) grantable(tx word.TxID, m Mode) bool {
	switch m {
	case Read:
		return e.writer == 0 || e.writer == tx
	default: // Write
		if e.writer != 0 && e.writer != tx {
			return false
		}
		for r := range e.readers {
			if r != tx {
				return false // other readers block the upgrade
			}
		}
		return true
	}
}

// waitInfo records what a blocked transaction is waiting for; the set of
// these is the node+edge source for the waits-for graph.
type waitInfo struct {
	addr word.Addr
	mode Mode
}

// Manager is the lock table.
type Manager struct {
	mu      sync.Mutex
	cond    *sync.Cond
	table   map[word.Addr]*entry
	held    map[word.TxID]map[word.Addr]Mode // per-tx held locks
	wait    time.Duration
	waiting map[word.TxID]waitInfo // blocked txs and what they wait for
	victims map[word.TxID]bool     // txs chosen to break a cycle
	Met     Metrics
}

// Metrics counts lock-manager activity.
type Metrics struct {
	Acquires       obs.Counter `obs:"lock_acquires_total"`
	Conflicts      obs.Counter `obs:"lock_conflicts_total"`       // acquires that could not be granted immediately
	Timeouts       obs.Counter `obs:"lock_timeouts_total"`        // real waits that expired (backstop; fast-fails excluded)
	DeadlockAborts obs.Counter `obs:"lock_deadlock_aborts_total"` // waits broken by the cycle detector
	Rekeys         obs.Counter `obs:"lock_rekeys_total"`
}

// NewManager creates a lock manager whose blocked acquires time out after
// wait (zero means immediate failure on conflict).
func NewManager(wait time.Duration) *Manager {
	m := &Manager{
		table:   make(map[word.Addr]*entry),
		held:    make(map[word.TxID]map[word.Addr]Mode),
		wait:    wait,
		waiting: make(map[word.TxID]waitInfo),
		victims: make(map[word.TxID]bool),
	}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// Acquire obtains the lock on addr in mode mode for tx, blocking up to the
// manager's wait limit. Re-acquiring a held lock (or read-after-write) is a
// no-op; read-to-write upgrades are supported when no other reader holds
// the lock.
func (m *Manager) Acquire(tx word.TxID, addr word.Addr, mode Mode) error {
	return m.AcquireWait(tx, addr, mode, m.wait)
}

// TryAcquire attempts the lock without waiting (used by the stability
// tracker, which runs under the action latch and must never block on
// another transaction that needs the latch to make progress).
func (m *Manager) TryAcquire(tx word.TxID, addr word.Addr, mode Mode) error {
	return m.AcquireWait(tx, addr, mode, 0)
}

// AcquireWait is Acquire with an explicit wait budget.
func (m *Manager) AcquireWait(tx word.TxID, addr word.Addr, mode Mode, wait time.Duration) error {
	if tx == word.SystemTx {
		panic("lock: system pseudo-transaction cannot take locks")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.Met.Acquires.Inc()
	e := m.table[addr]
	if e == nil {
		e = &entry{}
		m.table[addr] = e
	}
	if !e.grantable(tx, mode) {
		m.Met.Conflicts.Inc()
		if wait == 0 {
			if e.free() {
				delete(m.table, addr)
			}
			// Fast-fail refusals are conflicts, not timeouts: no wait
			// budget expired. (The heap's lock path always tries a
			// zero-wait acquire first, so counting these as Timeouts
			// would drown the backstop signal.)
			return ErrTimeout
		}
		// Re-fetch the entry on every check: while we slept it may have
		// been freed and deleted (releases drop empty entries) or
		// recreated by another acquirer.
		err := m.blockOn(tx, addr, mode, wait, func() bool {
			cur := m.table[addr]
			return cur == nil || cur.grantable(tx, mode)
		})
		if err != nil {
			if cur := m.table[addr]; cur != nil && cur.free() {
				delete(m.table, addr)
			}
			return err
		}
		if e = m.table[addr]; e == nil {
			e = &entry{}
			m.table[addr] = e
		}
	}
	m.grant(tx, addr, e, mode)
	return nil
}

// blockOn waits until check() holds, the wait budget expires (ErrTimeout)
// or tx is chosen as a deadlock victim (ErrDeadlock). The manager mutex is
// held on entry and exit; tx is registered in the waiter set for the
// duration so the detector can see the edge it contributes.
func (m *Manager) blockOn(tx word.TxID, addr word.Addr, mode Mode, wait time.Duration, check func() bool) error {
	m.waiting[tx] = waitInfo{addr: addr, mode: mode}
	defer func() {
		delete(m.waiting, tx)
		// A stale victim mark (cycle broken by a release before we saw
		// it) must not poison this transaction's next wait.
		delete(m.victims, tx)
	}()
	deadline := time.Now().Add(wait)
	timer := time.AfterFunc(wait, func() {
		m.mu.Lock()
		m.cond.Broadcast()
		m.mu.Unlock()
	})
	defer timer.Stop()
	for !check() {
		if m.victims[tx] {
			delete(m.victims, tx)
			m.Met.DeadlockAborts.Inc()
			return ErrDeadlock
		}
		if time.Now().After(deadline) {
			m.Met.Timeouts.Inc()
			return ErrTimeout
		}
		// Run detection before every sleep: a cycle can only form when its
		// final edge is added, i.e. when some transaction reaches exactly
		// this point.
		if v := m.detectLocked(); v == tx {
			continue // we are the victim: handle it at the loop top
		}
		// Any other victim was woken by the broadcast and will abort,
		// releasing its locks; sleep until that happens.
		m.cond.Wait()
	}
	return nil
}

// WaitFree blocks until tx could acquire addr in the given mode (without
// actually granting it), the wait budget expires (ErrTimeout) or tx is
// picked as a deadlock victim (ErrDeadlock); nil means the lock looked
// grantable when it returned. Callers re-validate and TryAcquire under
// their own synchronization — the address may have been rekeyed or
// re-locked in between. The wait registers in the waits-for graph exactly
// like a blocked acquire, so cycles through WaitFree waiters are detected
// too.
func (m *Manager) WaitFree(tx word.TxID, addr word.Addr, mode Mode, wait time.Duration) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	check := func() bool {
		e := m.table[addr]
		return e == nil || e.grantable(tx, mode)
	}
	if check() {
		return nil
	}
	if wait == 0 {
		return ErrTimeout
	}
	return m.blockOn(tx, addr, mode, wait, check)
}

// Release drops tx's hold on one address (used by the optimistic
// lock-then-verify path when the collector moved the object between the
// address read and the acquisition). Releasing an unheld lock is a no-op.
func (m *Manager) Release(tx word.TxID, addr word.Addr) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.table[addr]
	if e == nil {
		return
	}
	if e.writer == tx {
		e.writer = 0
	}
	delete(e.readers, tx)
	if e.free() {
		delete(m.table, addr)
	}
	if h := m.held[tx]; h != nil {
		delete(h, addr)
		if len(h) == 0 {
			delete(m.held, tx)
		}
	}
	m.cond.Broadcast()
}

// grant installs the lock; the mutex is held.
func (m *Manager) grant(tx word.TxID, addr word.Addr, e *entry, mode Mode) {
	switch mode {
	case Read:
		if e.writer == tx {
			return // write lock subsumes read
		}
		if e.readers == nil {
			e.readers = make(map[word.TxID]struct{})
		}
		e.readers[tx] = struct{}{}
	default:
		delete(e.readers, tx) // upgrade consumes the read lock
		e.writer = tx
	}
	h := m.held[tx]
	if h == nil {
		h = make(map[word.Addr]Mode)
		m.held[tx] = h
	}
	if cur, ok := h[addr]; !ok || mode == Write && cur == Read {
		h[addr] = mode
	}
}

// Holds reports the strongest mode tx holds on addr.
func (m *Manager) Holds(tx word.TxID, addr word.Addr) (Mode, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	mode, ok := m.held[tx][addr]
	return mode, ok
}

// WriteLockedBy returns the transaction write-holding addr, or 0.
func (m *Manager) WriteLockedBy(addr word.Addr) word.TxID {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e := m.table[addr]; e != nil {
		return e.writer
	}
	return 0
}

// ReleaseAll drops every lock tx holds (commit/abort) and wakes waiters.
func (m *Manager) ReleaseAll(tx word.TxID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for addr := range m.held[tx] {
		e := m.table[addr]
		if e == nil {
			continue
		}
		if e.writer == tx {
			e.writer = 0
		}
		delete(e.readers, tx)
		if e.free() {
			delete(m.table, addr)
		}
	}
	delete(m.held, tx)
	m.cond.Broadcast()
}

// Rekey moves the lock entry for a relocated object from its old address to
// its new one (called by the collector at a flip). It is an error if the
// new address already has lock state.
func (m *Manager) Rekey(from, to word.Addr) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.table[from]
	if !ok {
		return
	}
	if _, clash := m.table[to]; clash {
		panic(fmt.Sprintf("lock: rekey target %v already locked", to))
	}
	delete(m.table, from)
	m.table[to] = e
	for tx := range e.readers {
		m.rekeyHeld(tx, from, to)
	}
	if e.writer != 0 {
		m.rekeyHeld(e.writer, from, to)
	}
	m.Met.Rekeys.Inc()
}

func (m *Manager) rekeyHeld(tx word.TxID, from, to word.Addr) {
	h := m.held[tx]
	if mode, ok := h[from]; ok {
		delete(h, from)
		h[to] = mode
	}
}

// LockedAddrs returns every address with lock state, in no particular
// order: the collector copies these objects at a flip so their lock-table
// keys stay meaningful.
func (m *Manager) LockedAddrs() []word.Addr {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]word.Addr, 0, len(m.table))
	for a := range m.table {
		out = append(out, a)
	}
	return out
}

// HeldBy returns the addresses tx holds locks on.
func (m *Manager) HeldBy(tx word.TxID) []word.Addr {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]word.Addr, 0, len(m.held[tx]))
	for a := range m.held[tx] {
		out = append(out, a)
	}
	return out
}

// Reset clears all lock state (crash: locks are volatile).
func (m *Manager) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.table = make(map[word.Addr]*entry)
	m.held = make(map[word.TxID]map[word.Addr]Mode)
	m.victims = make(map[word.TxID]bool)
	m.cond.Broadcast()
}
