// Package stability implements the concurrent tracking of newly stable
// objects (Ch. 5): when a transaction commits, every volatile object it
// made reachable from a stable root must become stable — durably — before
// the commit record is written.
//
// The tracker discovers the closure of newly reachable volatile objects,
// read-locks each one (synchronizing with in-flight writers — the fix for
// the published Argus tracking bug [38]: an object write-locked by an
// active transaction cannot be stabilized until that transaction finishes,
// so a base record never captures another transaction's uncommitted,
// unlogged volatile writes) and sets its AS bit. Then it spools base records
// with the objects' full values, one per run of the batch's objects that lie
// end to end, and registers each object in the LS set ("logically stable,
// still in the volatile area"). The transaction's commit record closes the
// batch (the paper's base-update-complete marker). The
// objects are physically moved into the stable area at the next volatile
// collection.
//
// Tracking for different transactions proceeds concurrently in the sense
// of the paper: it is made of short low-level actions that interleave with
// other transactions' actions, synchronized only through per-object locks
// and the AS bit.
package stability

import (
	"cmp"
	"fmt"
	"slices"

	"stableheap/internal/heap"
	"stableheap/internal/lock"
	"stableheap/internal/obs"
	"stableheap/internal/tx"
	"stableheap/internal/word"
)

// Env supplies the tracker's view of the heap geometry and shared sets.
type Env struct {
	// InVolatile reports whether an address is in the volatile area.
	InVolatile func(word.Addr) bool
	// AddLS registers a newly stable object (volatile address, size in
	// words) in the LS set.
	AddLS func(a word.Addr, sizeWords int)
	// Forward maps a volatile address to the object's current location —
	// the mostly-concurrent collector's read barrier. While a concurrent
	// scan is in flight, raw slot reads can surface from-space addresses;
	// everything the tracker marks or logs must be forwarded first, or the
	// batch would stabilize addresses the scan's from-space discard kills.
	// Nil means identity.
	Forward func(word.Addr) word.Addr
}

// Metrics counts tracker activity.
type Metrics struct {
	Batches   obs.Counter   `obs:"track_batches_total"`        // commits that stabilized at least one object
	Objects   obs.Counter   `obs:"track_objects_total"`        // objects stabilized
	Words     obs.Counter   `obs:"track_words_total"`          // words of base images logged
	LockWaits obs.Counter   `obs:"track_lock_waits_total"`     // objects that were write-locked when first visited
	AlreadyAS obs.Counter   `obs:"track_already_stable_total"` // closure edges that hit an already-stable object
	Closure   obs.Histogram `obs:"track_closure_objects"`      // objects per batch
}

// Tracker stabilizes newly reachable volatile objects at commit.
type Tracker struct {
	h     *heap.Heap
	txm   *tx.Manager
	locks *lock.Manager
	env   Env
	Met   Metrics
	batch []member // the objects Track marked AS, reused
}

// member is one object of a tracking batch.
type member struct {
	addr  word.Addr
	words int
}

// New creates a tracker.
func New(h *heap.Heap, txm *tx.Manager, locks *lock.Manager, env Env) *Tracker {
	return &Tracker{h: h, txm: txm, locks: locks, env: env}
}

// Track stabilizes the closure of volatile objects reachable through the
// candidate handles (the targets of the transaction's pointer stores into
// stable state). It is called inside commit processing, before the commit
// record, which closes the batch. A lock timeout aborts the commit:
// the caller must abort the transaction. own, when not nil, reports the
// objects private to t — still in the chunk it allocated them into, where
// no other transaction can reach them without conflicting with t — whose
// lock step is skipped.
func (tr *Tracker) Track(t *tx.Tx, candidates []*tx.Handle, own func(word.Addr) bool) error {
	tr.batch = tr.batch[:0]
	var err error
	for _, c := range candidates {
		if err = tr.stabilize(t, own, c.Addr()); err != nil {
			break
		}
	}
	// A lock failure still logs what it marked: every later tracker skips
	// an AS object, so one without a base record would never get one.
	tr.logRuns(t)
	if err != nil {
		return err
	}
	if count := len(tr.batch); count > 0 {
		tr.Met.Batches.Inc()
		tr.Met.Objects.Add(uint64(count))
		tr.Met.Closure.Observe(uint64(count))
	}
	return nil
}

// logRuns logs the batch, one base record per run of objects that lie end
// to end, and re-stamps each run with its record's LSN: its pages now carry
// logged state (the dirty page table and the WAL rule apply to them).
func (tr *Tracker) logRuns(t *tx.Tx) {
	b := tr.batch
	slices.SortFunc(b, func(x, y member) int { return cmp.Compare(x.addr, y.addr) })
	for len(b) > 0 {
		n, words := 1, b[0].words
		for n < len(b) && b[n].addr == b[0].addr.Add(words) {
			words += b[n].words
			n++
		}
		img := tr.h.RunBytes(b[0].addr, words)
		lsn := tr.txm.LogBase(t, b[0].addr, img)
		tr.h.WriteObject(b[0].addr, img, lsn)
		for _, m := range b[:n] {
			tr.env.AddLS(m.addr, m.words)
		}
		tr.Met.Words.Add(uint64(words))
		b = b[n:]
	}
}

// stabilize marks the object at addr (and everything volatile it reaches)
// AS and adds each object it marks to the batch.
func (tr *Tracker) stabilize(t *tx.Tx, own func(word.Addr) bool, addr word.Addr) error {
	if addr.IsNil() {
		return nil
	}
	if tr.env.Forward != nil {
		addr = tr.env.Forward(addr)
	}
	if !tr.env.InVolatile(addr) {
		return nil // already physically stable
	}
	d := tr.h.Descriptor(addr)
	if d.Forwarded() {
		panic(fmt.Sprintf("stability: forwarded object %v reached outside a collection", addr))
	}
	if d.AS() {
		tr.Met.AlreadyAS.Inc()
		return nil // another commit already stabilized it
	}
	// Synchronize with in-flight writers: a read lock blocks until any
	// writer finishes (and its effects are either committed — fine to
	// capture — or rolled back from in-memory undo). This is the bug
	// fix: without it a base record could capture uncommitted volatile
	// writes that a later abort cannot remove. An object t owns needs no
	// lock: nobody else can have written it.
	if own == nil || !own(addr) {
		if w := tr.locks.WriteLockedBy(addr); w != 0 && w != t.ID() {
			tr.Met.LockWaits.Inc()
		}
		if err := tr.locks.TryAcquire(t.ID(), addr, lock.Read); err != nil {
			return err
		}
		// Re-read under the lock: a concurrent tracker may have won.
		d = tr.h.Descriptor(addr)
		if d.AS() {
			tr.Met.AlreadyAS.Inc()
			return nil
		}
	}
	// Forward the pointer fields in place before the image is taken: an
	// unscanned slot may still hold a from-space address, and the base
	// record must never capture one (recovery would replay a pointer into
	// space the collection discarded).
	if tr.env.Forward != nil {
		for i := 0; i < d.NPtrs(); i++ {
			p := tr.h.Ptr(addr, i)
			if f := tr.env.Forward(p); f != p {
				tr.h.SetPtr(addr, i, f, word.NilLSN)
			}
		}
	}
	// Set the AS bit first so the base image carries it (redo of the
	// base record then restores the bit along with the value), and so
	// every subsequent update to this object follows the WAL protocol.
	// The bit write itself is not undo-tracked: stabilization is owed to
	// a committing transaction and survives even if *other* writers
	// abort later.
	d = d.WithAS(true).WithLS(true)
	tr.h.SetDescriptor(addr, d, word.NilLSN)
	tr.batch = append(tr.batch, member{addr: addr, words: d.SizeWords()})

	// Recurse into the pointer fields: the whole closure becomes stable
	// (§2.1: "a volatile object becomes stable when a transaction that
	// makes it accessible from a stable object commits"). Stabilizing a
	// child never writes this object.
	for i := 0; i < d.NPtrs(); i++ {
		if err := tr.stabilize(t, own, tr.h.Ptr(addr, i)); err != nil {
			return err
		}
	}
	return nil
}
