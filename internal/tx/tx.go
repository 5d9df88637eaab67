// Package tx implements the transaction machinery of the stable heap
// (§2.1, Ch. 4): the transaction table, the write-ahead log protocol for
// updates to stable state, in-place abort with compensation log records,
// cheap in-memory undo for updates to volatile objects, and the
// per-transaction undo-address translations (the UTT of §4.4) that let
// abort find objects the collector has moved since their updates were
// logged.
//
// The package is policy-free: it does not know about areas, stability
// tracking, or collection scheduling. The stable-heap core decides whether
// a given modification is to stable state (and therefore logged) and drives
// locking; this package supplies the recoverable actions.
package tx

import (
	"fmt"
	"sync"
	"time"

	"stableheap/internal/heap"
	"stableheap/internal/lock"
	"stableheap/internal/obs"
	"stableheap/internal/vm"
	"stableheap/internal/wal"
	"stableheap/internal/word"
)

// Status is a transaction's lifecycle state.
type Status uint8

// Transaction states.
const (
	Active Status = iota
	Committed
	Aborted
)

// Handle is a registered mutator root: a stable reference the program
// holds in a variable (the paper's registers, stacks and own variables).
// The collector rewrites registered handles at a flip, so a Handle remains
// valid while objects move. Handles belong to a transaction and die with
// it.
type Handle struct {
	addr word.Addr
	// born is the transaction that allocated the object, and so holds its
	// write lock (RegisterBorn); nil for every other handle.
	born *Tx
	// shape is a born object's descriptor as its allocation wrote it.
	shape heap.Descriptor
}

// Addr returns the object's current address.
func (h *Handle) Addr() word.Addr { return h.addr }

// BornIn reports whether h names an object t allocated: t holds its write
// lock until it ends, and its writes through h need no undo (DESIGN.md §11,
// "Born objects"). A nil handle was born in nothing.
func (h *Handle) BornIn(t *Tx) bool { return h != nil && h.born == t }

// Shape returns the descriptor a born object was allocated with (zero for
// any other handle). Its creator is the only transaction that can set the
// object's AS bit, so until it commits the descriptor in memory is this one.
func (h *Handle) Shape() heap.Descriptor { return h.shape }

// uttEntry is one per-record undo address translation (the paper's UTT,
// §4.4): the address an update record logged, where that slot or pointer
// target lives now, and the record's LSN — the entry's identity, since
// the same address can be logged twice by one transaction for different
// objects across collections (from-space reuse).
type uttEntry struct {
	lsn    word.LSN
	logged word.Addr
	cur    word.Addr
}

// volWrite is one in-memory undo entry for an unlogged volatile update
// (always one word).
type volWrite struct {
	addr  word.Addr // current address (rebased when the object moves)
	old   uint64
	isPtr bool // old is a pointer value (a recovery-info root)
}

// Tx is one transaction.
type Tx struct {
	id word.TxID
	// owner is the manager whose table holds the transaction: set when it
	// enters the table, cleared when a crash empties it. A finished
	// transaction keeps it; its status says it is done.
	owner  *Manager
	status Status
	begun  time.Time // for the lifetime histograms (zero when recovered)
	// firstLSN and lastLSN bound the transaction's log chain; both are
	// NilLSN until its first logged change (Tx.chain), so a transaction
	// that logs nothing appends nothing, forces nothing and pins no log.
	firstLSN word.LSN
	lastLSN  word.LSN
	handles  []*Handle
	// volUndo records unlogged volatile writes, undone in reverse order
	// on abort. Entries are rebased by Relocate when objects move.
	volUndo []volWrite
	// undoSlots lists the slot addresses of this transaction's update
	// records; undoVals lists the pointer values its undo images hold
	// (the paper's "roots in recovery information", §3.5.2: objects
	// reachable only from undo information must be retained and
	// translated by the collector). Each entry tracks its own current
	// address, rebased by Relocate after every collector cycle, and is keyed
	// by the LSN of the record that logged it: a translation map keyed
	// by address alone aliases when the allocator reuses a from-space
	// address for a different object after a collection, and an abort
	// then restores the undo image into the wrong object.
	undoSlots []uttEntry
	undoVals  []uttEntry
	// prepared marks the participant side of two-phase commit: the
	// transaction's fate awaits the coordinator, and it survives crashes
	// in-doubt.
	prepared bool
	// updating marks a transaction that has logged an update; commitLSN is
	// its commit record once appended, which decides it (TableEntries), and
	// overlap counts the other update transactions it was open together
	// with (Manager.CommitShape). The last two are guarded by the manager's
	// mu. span is its time from Begin to its commit record, folded into the
	// commit shape as it ends.
	updating  bool
	commitLSN word.LSN
	overlap   int
	span      time.Duration
}

// Prepared reports whether the transaction is in the prepared state.
func (t *Tx) Prepared() bool { return t.prepared }

// ID returns the transaction id.
func (t *Tx) ID() word.TxID { return t.id }

// Status returns the lifecycle state.
func (t *Tx) Status() Status { return t.status }

// Env supplies the policy callbacks the manager needs from the stable-heap
// core.
type Env struct {
	// VolatilePred reports whether an address lies in the volatile area
	// (used to flag pointer stores for the remembered set). May be nil.
	VolatilePred func(word.Addr) bool
	// OnStableSlotWrite fires for every pointer store into a stable slot
	// — by updates and by undo — so the core can maintain the
	// stable→volatile remembered set. May be nil.
	OnStableSlotWrite func(slot word.Addr, ptrToVolatile bool)
	// OnVolatilePtrWrite fires for every pointer store into a volatile
	// slot — by unlogged writes and by their undo — with the value being
	// overwritten and the value stored. The core uses it for the
	// nursery's generational remembered set and, in mostly-concurrent
	// collection, as the snapshot-at-the-beginning deletion barrier.
	// May be nil.
	OnVolatilePtrWrite func(slot, old, stored word.Addr)
}

// Manager owns the transaction table and the recoverable-action protocol.
//
// Concurrency: the table map and the id generator are guarded by an
// internal mutex and the outcome counters are atomics, so Begin, Update,
// PrepareCommit, FinishCommit and Abort may run from concurrent transactions (each Tx is owned
// by a single goroutine). Relocate additionally locks the table and the undo
// lists (undoMu), because the mostly-concurrent collector's read barrier
// copies objects from mutator contexts. The remaining whole-table walks
// (ForEachHandle, ForEachUndoRoot, TableEntries, AbortAll, Crash) mutate
// per-transaction state of OTHER transactions and are only safe from
// contexts that exclude all mutators — the heap's stop latch held
// exclusively.
type Manager struct {
	log   *wal.Manager
	mem   *vm.Store
	h     *heap.Heap
	locks *lock.Manager
	env   Env
	mu    sync.Mutex // guards nextTx and the active map
	// undoMu guards every transaction's undo lists (undoSlots, undoVals,
	// volUndo) against Relocate: during a mostly-concurrent volatile
	// collection the read barrier evacuates objects from a mutator
	// context, so Relocate can run concurrently with other transactions
	// appending undo entries. Order: m.mu before undoMu.
	undoMu sync.Mutex
	nextTx word.TxID
	active map[word.TxID]*Tx
	Met    Metrics // counters and lifetime histograms (atomic)
	// The commit shape ForceCommit's join reads (CommitShape): the update
	// transactions that have not ended (guarded by mu), the smoothed number
	// of update transactions a committed one was open together with, itself
	// included, and the smoothed time from Begin to the commit record of an
	// update transaction.
	updaters  []*Tx
	usualOpen obs.Smoothed
	span      obs.Smoothed // ns
}

// Metrics counts transaction outcomes and work. The lifetime histograms
// time begin→commit and begin→abort, always on (in-doubt transactions
// restored by recovery have no begin time and are excluded).
type Metrics struct {
	Begun      obs.Counter   `obs:"tx_begun_total"`
	Committed  obs.Counter   `obs:"tx_committed_total"`
	Aborted    obs.Counter   `obs:"tx_aborted_total"`
	Updates    obs.Counter   `obs:"tx_updates_total"`         // logged updates
	VolWrites  obs.Counter   `obs:"tx_volatile_writes_total"` // unlogged volatile writes
	CLRs       obs.Counter   `obs:"tx_clrs_total"`
	UTTProbes  obs.Counter   `obs:"tx_utt_probes_total"` // undo entries Relocate searched a batch for
	LifeCommit obs.Histogram `obs:"tx_lifetime_commit_ns"`
	LifeAbort  obs.Histogram `obs:"tx_lifetime_abort_ns"`
}

// NewManager creates a transaction manager.
func NewManager(log *wal.Manager, mem *vm.Store, h *heap.Heap, locks *lock.Manager, env Env) *Manager {
	return &Manager{
		log: log, mem: mem, h: h, locks: locks, env: env,
		nextTx: 1,
		active: make(map[word.TxID]*Tx),
	}
}

// inVolatile applies the environment's volatile-area predicate.
func (m *Manager) inVolatile(a word.Addr) bool {
	return m.env.VolatilePred != nil && !a.IsNil() && m.env.VolatilePred(a)
}

// NextTxID returns the next id to be issued (checkpointed so ids are not
// reused after recovery).
func (m *Manager) NextTxID() word.TxID {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.nextTx
}

// SetNextTxID restores the id generator (recovery).
func (m *Manager) SetNextTxID(id word.TxID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextTx = id
}

// CommitShape is what a commit tells the log's join step
// (wal.Manager.ForceCommit): how many update transactions are usually open
// together, and the smoothed time from Begin to the commit record of an
// update transaction. Both are workload averages, not the committer's own.
//
// An update transaction is open from its first logged update until its
// commit record is stable (or it ends); each committed one samples how
// many it was open together with, itself included. Read-only transactions
// never count, so they never hold a commit. Not a count at one instant:
// two committers one force releases start their next transactions side by
// side, and whether one finds the other open at its first update is a race
// between two wake-ups. Two that share a force are always open together,
// and one that starts after another's force has ended never overlaps it,
// however late the other wakes.
func (m *Manager) CommitShape() (usualOpen int, span time.Duration) {
	return int(m.usualOpen.Load()), time.Duration(m.span.Load())
}

// logged notes t's first logged update: it is open together with every
// update transaction whose commit record is not yet stable.
func (m *Manager) logged(t *Tx) {
	if t.updating {
		return
	}
	t.updating = true
	m.mu.Lock()
	for _, o := range m.updaters {
		if o.commitLSN == word.NilLSN || !m.log.IsStable(o.commitLSN) {
			o.overlap++
			t.overlap++
		}
	}
	m.updaters = append(m.updaters, t)
	m.mu.Unlock()
}

// endedLocked takes a finished update transaction out of updaters; a
// committed one that was not prepared samples how many it was open with.
// Called with mu held.
func (m *Manager) endedLocked(t *Tx, committed bool) {
	if !t.updating {
		return
	}
	t.updating = false
	for i, o := range m.updaters {
		if o == t {
			m.updaters = append(m.updaters[:i], m.updaters[i+1:]...)
			break
		}
	}
	if committed && !t.prepared {
		m.usualOpen.Observe(int64(t.overlap) + 1)
		if t.span > 0 {
			m.span.Observe(int64(t.span))
		}
	}
}

// ActiveCount returns the number of live transactions.
func (m *Manager) ActiveCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.active)
}

// Begin starts a transaction. It logs nothing: the transaction's log chain
// starts at its first logged change (Tx.chain), as in ARIES.
func (m *Manager) Begin() *Tx {
	m.mu.Lock()
	t := &Tx{id: m.nextTx, begun: time.Now(), owner: m}
	m.nextTx++
	m.active[t.id] = t
	m.mu.Unlock()
	m.Met.Begun.Inc()
	return t
}

// chain makes the record at lsn t's last, and its first when t had logged
// nothing before.
func (t *Tx) chain(lsn word.LSN) word.LSN {
	if t.firstLSN == word.NilLSN {
		t.firstLSN = lsn
	}
	t.lastLSN = lsn
	return lsn
}

// Register adds a mutator root handle for addr; the collector keeps it
// current across flips.
func (m *Manager) Register(t *Tx, addr word.Addr) *Handle {
	h := &Handle{addr: addr}
	t.handles = append(t.handles, h)
	return h
}

// RegisterBorn is Register for a volatile object t has just allocated with
// descriptor d, and so holds the write lock on: writes through the handle
// skip the lock and keep no undo, and Abort re-zeroes the object instead.
func (m *Manager) RegisterBorn(t *Tx, addr word.Addr, d heap.Descriptor) *Handle {
	h := &Handle{addr: addr, born: t, shape: d}
	t.handles = append(t.handles, h)
	return h
}

// Update performs a logged, recoverable update at addr (which must not
// cross a page boundary — field updates are word sized): the write-ahead
// protocol of §2.2.3 with both redo and undo images. isPtrSlot marks
// pointer-field stores: their undo values become recovery-info roots and
// the remembered set is maintained through them.
func (m *Manager) Update(t *Tx, obj, addr word.Addr, redo []byte, isPtrSlot bool) {
	m.mustBeActive(t)
	undo := m.mem.ReadBytes(addr, len(redo))
	var flags uint8
	if isPtrSlot {
		flags |= wal.UFPtrSlot
		if m.inVolatile(word.Addr(word.GetWord(redo, 0))) {
			flags |= wal.UFPtrToVolatile
		}
	}
	// Append encodes the record into the log device before returning, so
	// the caller's redo buffer need not be copied here.
	lsn := t.chain(m.log.Append(wal.UpdateRec{
		TxHdr: wal.TxHdr{TxID: t.id, PrevLSN: t.lastLSN},
		Addr:  addr, Obj: obj, Flags: flags,
		Redo: redo, Undo: undo,
	}))
	m.logged(t)
	m.mem.WriteBytes(addr, redo, lsn)
	m.undoMu.Lock()
	t.undoSlots = append(t.undoSlots, uttEntry{lsn: lsn, logged: addr, cur: addr})
	if isPtrSlot {
		if old := word.Addr(word.GetWord(undo, 0)); !old.IsNil() {
			t.undoVals = append(t.undoVals, uttEntry{lsn: lsn, logged: old, cur: old})
		}
	}
	m.undoMu.Unlock()
	if isPtrSlot {
		if m.env.OnStableSlotWrite != nil {
			m.env.OnStableSlotWrite(addr, flags&wal.UFPtrToVolatile != 0)
		}
	}
	m.Met.Updates.Inc()
}

// UpdateLogical performs a logged, recoverable wrapping-add of delta to
// the word at addr — the paper's "logical undo" optimization (§2.2.4):
// the record carries no before-image, and abort compensates by adding the
// negated delta at the object's *current* location (only the slot address
// needs UTT translation, never the value).
func (m *Manager) UpdateLogical(t *Tx, obj, addr word.Addr, delta uint64) {
	m.mustBeActive(t)
	lsn := t.chain(m.log.Append(wal.LogicalRec{
		TxHdr: wal.TxHdr{TxID: t.id, PrevLSN: t.lastLSN},
		Addr:  addr, Obj: obj, Delta: delta,
	}))
	m.logged(t)
	cur := m.mem.ReadWord(addr)
	m.mem.WriteWord(addr, cur+delta, lsn)
	m.undoMu.Lock()
	t.undoSlots = append(t.undoSlots, uttEntry{lsn: lsn, logged: addr, cur: addr})
	m.undoMu.Unlock()
	m.Met.Updates.Inc()
}

// VolatileWrite performs an unlogged one-word update of a volatile object,
// keeping in-memory undo so abort restores it — unless born is set: the
// object was born in t (Handle.BornIn), so no other transaction can have
// seen a value of it that abort would have to bring back. Volatile state
// costs no log traffic — the point of Chapter 5's division.
func (m *Manager) VolatileWrite(t *Tx, addr word.Addr, v uint64, isPtrSlot, born bool) {
	m.mustBeActive(t)
	old := m.mem.SwapWord(addr, v, word.NilLSN)
	if !born {
		m.undoMu.Lock()
		t.volUndo = append(t.volUndo, volWrite{addr: addr, old: old, isPtr: isPtrSlot})
		m.undoMu.Unlock()
	}
	if isPtrSlot && m.env.OnVolatilePtrWrite != nil {
		m.env.OnVolatilePtrWrite(addr, word.Addr(old), word.Addr(v))
	}
	m.Met.VolWrites.Inc()
}

// FreshWrite stores v into a word of an object t allocated into its
// allocation chunk and that is still there: no undo, as for any born object,
// and no barrier hook. The chunk was carved after the last volatile flip, so
// the word never held a from-space pointer for a concurrent scan to gray,
// and a slot in the nursery never enters the nursery remembered set.
func (m *Manager) FreshWrite(t *Tx, addr word.Addr, v uint64) {
	m.mustBeActive(t)
	m.mem.WriteWord(addr, v, word.NilLSN)
	m.Met.VolWrites.Inc()
}

// LogAlloc makes a stable-area allocation recoverable (§4.2): the record
// re-creates the descriptor and zero body on redo; there is nothing to
// undo.
func (m *Manager) LogAlloc(t *Tx, addr word.Addr, d heap.Descriptor) word.LSN {
	m.mustBeActive(t)
	lsn := t.chain(m.log.Append(wal.AllocRec{
		TxHdr: wal.TxHdr{TxID: t.id, PrevLSN: t.lastLSN},
		Addr:  addr, Descriptor: uint64(d), SizeWords: d.SizeWords(),
	}))
	m.logged(t)
	return lsn
}

// LogBase spools the initial-value record for a run of newly stable
// objects that lie end to end from addr (Ch. 5); the run image was captured
// by the stability tracker. The transaction's commit record closes the
// batch: no record of its own marks the base updates complete.
func (m *Manager) LogBase(t *Tx, addr word.Addr, img []byte) word.LSN {
	m.mustBeActive(t)
	return t.chain(m.log.Append(wal.BaseRec{
		TxHdr:  wal.TxHdr{TxID: t.id, PrevLSN: t.lastLSN},
		Addr:   addr,
		Object: img,
	}))
}

// Prepare appends the prepare record (the participant side of two-phase
// commit) and returns its LSN; once the caller has forced it, the
// transaction's effects are durable without its fate being decided: locks
// stay held, and after a crash the transaction is restored in-doubt until
// the coordinator's decision arrives.
func (m *Manager) Prepare(t *Tx) word.LSN {
	m.mustBeActive(t)
	lsn := t.chain(m.log.Append(wal.PrepareRec{TxHdr: wal.TxHdr{TxID: t.id, PrevLSN: t.lastLSN}}))
	t.prepared = true
	return lsn
}

// Lookup returns the active transaction with the given id, or nil.
func (m *Manager) Lookup(id word.TxID) *Tx {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.active[id]
}

// RestoreInDoubt reconstructs a prepared transaction after recovery: its
// log chain is walked to rebuild the undo roots and translation map
// (translate maps an address logged at the given LSN to its current
// location), and it re-enters the table — prepared, holding no handles,
// waiting for resolution. The caller reacquires its object locks.
func (m *Manager) RestoreInDoubt(id word.TxID, lastLSN word.LSN, translate func(word.Addr, word.LSN) word.Addr) (*Tx, []word.Addr) {
	t := &Tx{id: id, owner: m, lastLSN: lastLSN, prepared: true}
	var objs []word.Addr
	walkChain(m.log, id, lastLSN, func(lsn word.LSN, rec wal.Record) {
		// The walk's last record is the oldest a later undo reads: the
		// checkpoint must keep the log from there (TableEntries).
		t.firstLSN = lsn
		switch r := rec.(type) {
		case wal.UpdateRec:
			t.undoSlots = append(t.undoSlots, uttEntry{lsn: lsn, logged: r.Addr, cur: translate(r.Addr, lsn)})
			if r.Flags&wal.UFPtrSlot != 0 {
				if old := word.Addr(word.GetWord(r.Undo, 0)); !old.IsNil() {
					t.undoVals = append(t.undoVals, uttEntry{lsn: lsn, logged: old, cur: translate(old, lsn)})
				}
			}
			objs = append(objs, translate(r.Obj, lsn))
		case wal.LogicalRec:
			t.undoSlots = append(t.undoSlots, uttEntry{lsn: lsn, logged: r.Addr, cur: translate(r.Addr, lsn)})
			objs = append(objs, translate(r.Obj, lsn))
		}
	})
	m.mu.Lock()
	m.active[id] = t
	m.mu.Unlock()
	return t, objs
}

// PrepareCommit appends the commit record — the commit point, and the only
// record whose force a transaction waits for (§2.2.1) — and returns its
// LSN. The record decides the transaction: from here a crash either keeps
// it, and the transaction is a winner, or loses it with every record after
// it, so no checkpoint lists the transaction again (TableEntries). The
// caller makes the record durable with wal.Manager.Force, holding no latch,
// so that overlapping committers share one synchronous write (the paper's
// footnote 1), and then calls FinishCommit. A transaction that has logged
// nothing appends nothing and returns NilLSN: there is nothing to make
// durable.
func (m *Manager) PrepareCommit(t *Tx) word.LSN {
	m.mustBeActive(t)
	if t.lastLSN == word.NilLSN {
		return word.NilLSN
	}
	lsn := t.chain(m.log.Append(wal.CommitRec{TxHdr: wal.TxHdr{TxID: t.id, PrevLSN: t.lastLSN}}))
	m.mu.Lock()
	t.commitLSN = lsn
	m.mu.Unlock()
	if t.updating && !t.begun.IsZero() {
		t.span = time.Since(t.begun)
	}
	return lsn
}

// FinishCommit completes a prepared, durable commit: locks release and the
// transaction leaves the table. It logs nothing: the commit record ends a
// committed transaction, and an end record closes only a rollback. Until
// here the transaction's handles stay collector roots, because a lock entry
// is keyed by its object's address: an object the transaction still holds
// locked must move with its entry, not be freed under it.
func (m *Manager) FinishCommit(t *Tx) {
	m.mustBeActive(t)
	t.status = Committed
	m.locks.ReleaseAll(t.id)
	m.mu.Lock()
	delete(m.active, t.id)
	m.endedLocked(t, true)
	m.mu.Unlock()
	m.Met.Committed.Inc()
	if !t.begun.IsZero() {
		m.Met.LifeCommit.Since(t.begun)
	}
}

// Abort rolls the transaction back in place: logged updates are undone in
// reverse order through the undo-address translations (the UTT, §4.4),
// each undo writing a compensation record (§2.2.3); unlogged volatile
// writes are undone from memory. Undoing into a not-yet-copied from-space
// object is sound: the later copy step carries the restored bytes, and on
// replay the CLR precedes the copy record. The first CLR follows the
// transaction's last record directly: no record marks the start of a
// rollback. A transaction that has logged nothing appends nothing.
func (m *Manager) Abort(t *Tx) {
	m.mustBeActive(t)
	logged := t.lastLSN != word.NilLSN
	if logged {
		m.undoLogged(t)
	}
	// Unlogged volatile writes: restore from memory, newest first. Each
	// restore is itself a volatile pointer store, so the barrier hook
	// fires for it too (grayed overwrites, nursery remembered set).
	for i := len(t.volUndo) - 1; i >= 0; i-- {
		w := t.volUndo[i]
		if w.isPtr && m.env.OnVolatilePtrWrite != nil {
			m.env.OnVolatilePtrWrite(w.addr,
				word.Addr(m.mem.ReadWord(w.addr)), word.Addr(w.old))
		}
		m.mem.WriteWord(w.addr, w.old, word.NilLSN)
	}
	m.unbear(t)
	t.status = Aborted
	m.locks.ReleaseAll(t.id)
	if logged {
		t.chain(m.log.Append(wal.EndRec{TxHdr: wal.TxHdr{TxID: t.id, PrevLSN: t.lastLSN}}))
	}
	m.mu.Lock()
	delete(m.active, t.id)
	m.endedLocked(t, false)
	m.mu.Unlock()
	m.Met.Aborted.Inc()
	if !t.begun.IsZero() {
		m.Met.LifeAbort.Since(t.begun)
	}
}

// unbear returns every object t allocated and wrote without undo to the
// state Alloc left it in — descriptor and zero fields, which is what undoing
// each of those writes would have restored — so a handle another
// transaction took from an unlocked volatile root never shows it an aborted
// value. Only non-zero words are cleared (an object never written stays
// untouched, its page clean), and each non-nil pointer cleared passes the
// volatile barrier, as its undo would have: the object may have been in a
// concurrent scan's snapshot. Objects go newest first, each object's
// pointers last to first, which is the order undo would have restored them
// in when each object is written after its allocation; the barrier's gray
// order is the scan's copy order, so it decides where survivors land. Like
// that undo, it also clears an object tracking has already stabilized (a
// prepared transaction's): the abort has cut it off, so it is garbage, and
// a move into the stable area would log the cleared image.
func (m *Manager) unbear(t *Tx) {
	for j := len(t.handles) - 1; j >= 0; j-- {
		h := t.handles[j]
		if h.born != t || !m.inVolatile(h.addr) {
			continue
		}
		d := m.h.Descriptor(h.addr)
		for i := d.SizeWords() - 1; i >= 1; i-- {
			slot := h.addr.Add(i)
			old := m.mem.ReadWord(slot)
			if old == 0 {
				continue
			}
			if i <= d.NPtrs() && m.env.OnVolatilePtrWrite != nil {
				m.env.OnVolatilePtrWrite(slot, word.Addr(old), word.NilAddr)
			}
			m.mem.WriteWord(slot, 0, word.NilLSN)
		}
	}
}

// undoLogged undoes the transaction's logged updates, newest first. Undo
// addresses come from the per-record UTT entries, matched by the record's
// LSN — never by address, which aliases across from-space reuse.
func (m *Manager) undoLogged(t *Tx) {
	slotCur := make(map[word.LSN]word.Addr, len(t.undoSlots))
	for _, e := range t.undoSlots {
		slotCur[e.lsn] = e.cur
	}
	valCur := make(map[word.LSN]word.Addr, len(t.undoVals))
	for _, e := range t.undoVals {
		valCur[e.lsn] = e.cur
	}
	var clrs int
	t.lastLSN, clrs = UndoChain(m.log, m.mem, t.id, t.lastLSN,
		func(lsn word.LSN, logged word.Addr, isValue bool) word.Addr {
			utt := slotCur
			if isValue {
				utt = valCur
			}
			if cur, ok := utt[lsn]; ok {
				return cur
			}
			return logged
		}, m.inVolatile, m.env.OnStableSlotWrite)
	m.Met.CLRs.Add(uint64(clrs))
}

// Relocate rebases every active transaction's undo slot addresses, undo
// pointer values and volatile undo entries — together the paper's UTT, §4.4 —
// through one collection cycle's moves (DESIGN.md §4.3, "UTT maintenance").
// Each entry carries its own current address, so two records that logged the
// same (reused) address rebase independently.
func (m *Manager) Relocate(ms word.Moves) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.undoMu.Lock()
	defer m.undoMu.Unlock()
	// Entries outside the cycle's source span are dismissed, not searched.
	lo, hi := ms[0].From, ms[len(ms)-1].From.Add(ms[len(ms)-1].Words)
	var probes uint64
	translate := func(a word.Addr) word.Addr {
		if a < lo || a >= hi {
			return a
		}
		probes++
		return ms.Translate(a)
	}
	for _, t := range m.active {
		for i := range t.undoSlots {
			t.undoSlots[i].cur = translate(t.undoSlots[i].cur)
		}
		for i := range t.undoVals {
			t.undoVals[i].cur = translate(t.undoVals[i].cur)
		}
		for i := range t.volUndo {
			w := &t.volUndo[i]
			w.addr = translate(w.addr)
			if w.isPtr {
				w.old = uint64(translate(word.Addr(w.old)))
			}
		}
	}
	m.Met.UTTProbes.Add(probes)
}

// ForEachHandle visits every registered handle of every active transaction
// (part of the collectors' root set).
func (m *Manager) ForEachHandle(visit func(get func() word.Addr, set func(word.Addr))) {
	for _, t := range m.active {
		for _, h := range t.handles {
			h := h
			visit(func() word.Addr { return h.addr }, func(a word.Addr) { h.addr = a })
		}
	}
}

// ForEachUndoRoot visits every pointer value held only in undo information
// of active transactions — logged undo images and in-memory volatile undo
// — as collector roots (§3.5.2): the targets must survive a collection and
// the stored values must be translated when they move.
func (m *Manager) ForEachUndoRoot(visit func(get func() word.Addr, set func(word.Addr))) {
	for _, t := range m.active {
		for i := range t.undoVals {
			e := &t.undoVals[i]
			visit(
				func() word.Addr { return e.cur },
				func(a word.Addr) { e.cur = a },
			)
		}
		for i := range t.volUndo {
			w := &t.volUndo[i]
			if !w.isPtr {
				continue
			}
			visit(
				func() word.Addr { return word.Addr(w.old) },
				func(a word.Addr) { w.old = uint64(a) },
			)
		}
	}
}

// TableEntries snapshots the transaction table for a checkpoint, including
// each transaction's undo translations. Only undecided transactions are
// listed. One that has logged nothing has nothing for recovery to undo, so
// it pins no log. One whose commit record is appended is decided: a
// checkpoint after that record that listed it would, once promoted by
// another commit's force, make recovery roll back a commit whose own force
// had returned, since analysis starts past the record.
func (m *Manager) TableEntries() []wal.TxEntry {
	out := make([]wal.TxEntry, 0, len(m.active))
	for _, t := range m.active {
		if t.firstLSN == word.NilLSN || t.commitLSN != word.NilLSN {
			continue
		}
		e := wal.TxEntry{TxID: t.id, FirstLSN: t.firstLSN, LastLSN: t.lastLSN, Prepared: t.prepared}
		for _, s := range t.undoSlots {
			if s.cur != s.logged {
				e.UTT = append(e.UTT, wal.AddrPair{At: s.lsn, Orig: s.logged, Cur: s.cur})
			}
		}
		for _, v := range t.undoVals {
			if v.cur != v.logged {
				e.UTT = append(e.UTT, wal.AddrPair{At: v.lsn, Orig: v.logged, Cur: v.cur})
			}
		}
		out = append(out, e)
	}
	return out
}

// AbortAll aborts every active transaction (clean shutdown path).
func (m *Manager) AbortAll() {
	for _, t := range m.snapshotActive() {
		m.Abort(t)
	}
}

// snapshotActive copies the active set (Abort mutates the map).
func (m *Manager) snapshotActive() []*Tx {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Tx, 0, len(m.active))
	for _, t := range m.active {
		out = append(out, t)
	}
	return out
}

// Crash clears the (volatile) transaction table; the log retains everything
// recovery needs.
func (m *Manager) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, t := range m.active {
		t.owner = nil
	}
	m.active = make(map[word.TxID]*Tx)
	m.updaters = nil
}

// mustBeActive panics unless t is live in this manager's table: an active
// transaction is in the table exactly while its owner is m (another
// manager's, or one a crash dropped, is not).
func (m *Manager) mustBeActive(t *Tx) {
	if t.status != Active {
		panic(fmt.Sprintf("tx: operation on finished transaction %d", t.id))
	}
	if t.owner != m {
		panic(fmt.Sprintf("tx: unknown transaction %d", t.id))
	}
}
