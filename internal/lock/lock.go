// Package lock implements the object-granularity read/write locking of the
// stable heap's transaction model (§2.1): transactions acquire standard
// read/write locks on atomic objects and hold them to completion (strict
// two-phase locking), which makes transactions serializable.
//
// Objects are named by their current virtual address, as in the paper. When
// the collector flips and moves a locked object, it rekeys the lock table
// entry (Relocate); the addresses of locked objects are part of the root set a
// flip must translate.
//
// An object a running transaction has just created is locked without an
// entry: the transaction declares the address range it allocates into
// (SetBirthRange) and holds an implicit write lock on every object in it.
// The lock becomes an ordinary entry only when it matters — when another
// transaction's acquire, wait or WriteLockedBy names an address in the
// range, or when a collector moves an object out of it (Relocate) — always
// under the manager's mutex, which ReleaseAll also takes to drop the
// ranges, so no lock is ever granted to a transaction that has ended.
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
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
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
	addr    word.Addr              // the object's current address: its key
	writer  word.TxID              // holder of the write lock, 0 if none
	readers map[word.TxID]struct{} // read-lock holders; nil until the first
}

// holds reports whether tx holds the lock in some mode.
func (e *entry) holds(tx word.TxID) bool {
	_, r := e.readers[tx]
	return e.writer == tx || r
}

// drop takes tx's hold off the lock.
func (e *entry) drop(tx word.TxID) {
	if e.writer == tx {
		e.writer = 0
	}
	delete(e.readers, tx)
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

// birth is an address range whose objects tx holds implicit write locks
// on (SetBirthRange).
type birth struct {
	lo, hi word.Addr
	tx     word.TxID
}

// Manager is the lock table.
type Manager struct {
	mu      sync.Mutex
	cond    *sync.Cond
	table   map[word.Addr]*entry
	held    map[word.TxID][]*entry // per tx, each entry it was granted (some since released)
	births  []birth                // disjoint, sorted by lo
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
		held:    make(map[word.TxID][]*entry),
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
	e := m.lookup(addr)
	if e == nil {
		e = m.newEntry(addr)
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
			e = m.newEntry(addr)
		}
	}
	m.grant(tx, e, mode)
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
		e := m.lookup(addr)
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
	e.drop(tx)
	if e.free() {
		delete(m.table, addr)
	}
	m.cond.Broadcast()
}

// grant installs the lock; the mutex is held.
func (m *Manager) grant(tx word.TxID, e *entry, mode Mode) {
	if !e.holds(tx) {
		m.held[tx] = append(m.held[tx], e)
	}
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
}

// Holds reports the strongest mode tx holds on addr.
func (m *Manager) Holds(tx word.TxID, addr word.Addr) (Mode, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.table[addr]
	switch {
	case e == nil:
		return Read, false
	case e.writer == tx:
		return Write, true
	}
	_, ok := e.readers[tx]
	return Read, ok
}

// WriteLockedBy returns the transaction write-holding addr, or 0.
func (m *Manager) WriteLockedBy(addr word.Addr) word.TxID {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e := m.lookup(addr); e != nil {
		return e.writer
	}
	return 0
}

// ReleaseAll drops every lock tx holds (commit/abort) and wakes waiters.
func (m *Manager) ReleaseAll(tx word.TxID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range m.held[tx] {
		e.drop(tx)
		if e.free() && m.table[e.addr] == e {
			delete(m.table, e.addr)
		}
	}
	delete(m.held, tx)
	if len(m.births) > 0 {
		m.births = slices.DeleteFunc(m.births, func(b birth) bool { return b.tx == tx })
	}
	m.cond.Broadcast()
}

// SetBirthRange declares that tx holds an implicit write lock on every
// object in [lo, hi): the range it allocates new objects into. A range is
// named by its lo, so a second call with the same tx and lo resizes it.
// Ranges must be disjoint; ReleaseAll drops tx's, DropBirthRanges every
// one.
func (m *Manager) SetBirthRange(tx word.TxID, lo, hi word.Addr) {
	m.mu.Lock()
	defer m.mu.Unlock()
	i, found := slices.BinarySearchFunc(m.births, lo, func(b birth, lo word.Addr) int {
		return cmp.Compare(b.lo, lo)
	})
	if found && m.births[i].tx == tx {
		m.births[i].hi = hi
		return
	}
	if found || i > 0 && m.births[i-1].hi > lo || i < len(m.births) && m.births[i].lo < hi {
		panic(fmt.Sprintf("lock: birth range [%v,%v) of tx %d overlaps another", lo, hi, tx))
	}
	m.births = slices.Insert(m.births, i, birth{lo: lo, hi: hi, tx: tx})
}

// DropBirthRanges forgets every birth range (their objects have all moved,
// and the moves made their locks entries: Relocate).
func (m *Manager) DropBirthRanges() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.births = m.births[:0]
}

// bornTo returns the transaction whose birth range holds addr, or 0. The
// mutex is held.
func (m *Manager) bornTo(addr word.Addr) word.TxID {
	if len(m.births) == 0 || addr < m.births[0].lo || addr >= m.births[len(m.births)-1].hi {
		return 0
	}
	i := sort.Search(len(m.births), func(i int) bool { return m.births[i].hi > addr })
	if m.births[i].lo <= addr {
		return m.births[i].tx
	}
	return 0
}

// lookup returns addr's lock state, or nil when it is free; an address in
// a birth range gets its owner's write lock as an entry first. The mutex is
// held.
func (m *Manager) lookup(addr word.Addr) *entry {
	if e := m.table[addr]; e != nil {
		return e
	}
	owner := m.bornTo(addr)
	if owner == 0 {
		return nil
	}
	e := m.newEntry(addr)
	m.grant(owner, e, Write)
	return e
}

// newEntry enters free lock state for addr. The mutex is held.
func (m *Manager) newEntry(addr word.Addr) *entry {
	e := &entry{addr: addr}
	m.table[addr] = e
	return e
}

// Relocate rekeys the lock entries of one collection cycle's moved objects
// (called by the collectors, with the heap stopped or under the transport
// mutex); an object moving out of a birth range takes its owner's write
// lock along as an entry.
func (m *Manager) Relocate(ms word.Moves) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, mv := range ms {
		from, to := mv.From, mv.To
		e, ok := m.table[from]
		owner := word.TxID(0)
		if !ok {
			if owner = m.bornTo(from); owner == 0 {
				continue
			}
		}
		if _, clash := m.table[to]; clash {
			panic(fmt.Sprintf("lock: rekey target %v already locked", to))
		}
		if ok {
			delete(m.table, from)
			e.addr = to
			m.table[to] = e
		} else {
			m.grant(owner, m.newEntry(to), Write)
		}
		m.Met.Rekeys.Inc()
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
	var out []word.Addr
	for _, e := range m.held[tx] {
		if e.holds(tx) && m.table[e.addr] == e && !slices.Contains(out, e.addr) {
			out = append(out, e.addr)
		}
	}
	return out
}

// Reset clears all lock state (crash: locks are volatile).
func (m *Manager) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.table = make(map[word.Addr]*entry)
	m.held = make(map[word.TxID][]*entry)
	m.births = nil
	m.victims = make(map[word.TxID]bool)
	m.cond.Broadcast()
}
