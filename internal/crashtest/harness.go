// Package crashtest is the failure-injection harness: it drives a stable
// heap with a seeded, model-checked random workload, crashes it at
// arbitrary points — with an arbitrary subset of dirty pages flushed, and
// optionally in the middle of a collection — recovers, and verifies the
// paper's correctness obligations:
//
//	I4  committed durability / aborted invisibility after any crash point,
//	I6  exactly the committed stable state is reachable after recovery,
//	     and walking it never encounters a forwarding pointer or a
//	     malformed object,
//	     plus recovery determinism: recovering two copies of the same
//	     crash image yields the same committed state.
//
// Every crash the Driver takes is a restart: core.Open over the backings it
// owns — memory, or a directory laid out as filestore.Backings lays it out
// — so recovery sees exactly the bytes the crash left. The twin is
// recovered from clones of those backings, media recovery from the log's
// over a wiped page store, and the chaos explorer (chaos.go) hands the
// Driver its backings wrapped by a fault injector.
//
// This is the executable counterpart of the thesis's Chapter 6 invariants
// and Appendix A proof sketch, and the engine behind experiment E12.
package crashtest

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"stableheap/internal/core"
	"stableheap/internal/storage"
	"stableheap/internal/storage/filestore"
	"stableheap/internal/word"
)

// Stats counts harness activity.
type Stats struct {
	Steps       int
	Commits     int
	Aborts      int
	Crashes     int
	Recoveries  int
	VolGCs      int
	StableGCs   int
	Checkpoints int
	PagesKept   int // dirty pages flushed before crashes
}

// Driver runs the model-checked workload.
type Driver struct {
	cfg core.Config
	hp  *core.Heap
	// db and lb are the backings the heap lives in, the page store's and
	// the log's: every crash reopens the heap over the same bytes.
	db, lb storage.Backing
	rng    *rand.Rand
	model  map[int][]uint64 // committed list contents per root slot
	slots  int
	stats  Stats
	// pending is the outstanding prepared (in-doubt) transaction, if
	// any: its slot stays locked until the "coordinator" (the harness)
	// resolves it — possibly only after a crash. decided remembers past
	// decisions: a resolution's commit/abort records can be lost in a
	// crash, reverting the transaction to in-doubt, and two-phase commit
	// requires the coordinator to repeat the same answer.
	pending *pendingPrepared
	decided map[word.TxID]pendingPrepared
	// doubt holds the slot writes whose calls a device fault ended before
	// they returned: a commit record may already be forced, so the next
	// Verify accepts the model's list or a doubtful one for the slot and
	// pins what it finds (the rule counterBurst.doubt applies to counters).
	doubt []slotWrite
}

// slotWrite is what one transaction makes a root slot's committed list.
type slotWrite struct {
	slot int
	vals []uint64
}

// pendingPrepared records what the model becomes if the coordinator says
// commit; commit is the recorded decision once one is made.
type pendingPrepared struct {
	id       word.TxID
	slot     int
	ifCommit []uint64
	commit   bool
}

// New creates a driver over a fresh heap in memory, or on real files in
// cfg.Dir laid out as filestore.Backings lays them out. It panics if the
// heap cannot be opened.
func New(cfg core.Config, seed int64) *Driver {
	db, lb, err := filestore.Backings(cfg.Dir)
	if err == nil {
		var d *Driver
		if d, err = NewOn(cfg, seed, db, lb); err == nil {
			return d
		}
	}
	panic(fmt.Sprintf("crashtest: %v", err))
}

// NewOn creates a driver over a fresh heap formatted in the given backings,
// the page store's and the log's — the chaos explorer passes
// fault-injecting ones. Every crash reopens the heap over them.
func NewOn(cfg core.Config, seed int64, db, lb storage.Backing) (*Driver, error) {
	hp, err := core.Open(cfg, db, lb)
	if err != nil {
		return nil, err
	}
	return &Driver{
		cfg:     cfg,
		hp:      hp,
		db:      db,
		lb:      lb,
		rng:     rand.New(rand.NewSource(seed)),
		model:   make(map[int][]uint64),
		slots:   8,
		decided: make(map[word.TxID]pendingPrepared),
	}, nil
}

// Heap returns the current heap instance.
func (d *Driver) Heap() *core.Heap { return d.hp }

// Stats returns accumulated counters.
func (d *Driver) Stats() Stats { return d.stats }

// Step performs one random operation against the heap and the model.
// Operations that hit the in-doubt transaction's locks are skipped (the
// conflict is the correct behaviour, not a failure).
func (d *Driver) Step() error {
	d.stats.Steps++
	switch r := d.rng.Intn(100); {
	case r < 5:
		return d.prepareOrResolve()
	case r < 35:
		return benign(d.rebuildSlot())
	case r < 60:
		return benign(d.mutateSlot())
	case r < 70:
		return d.churn()
	case r < 80:
		d.stats.VolGCs++
		_, err := d.hp.CollectVolatile()
		return err
	case r < 88:
		// Incremental stable-collection progress (may start one).
		if d.rng.Intn(3) == 0 {
			d.hp.StartStableCollection()
			d.stats.StableGCs++
		}
		d.hp.StepStable()
		return nil
	case r < 94:
		d.stats.Checkpoints++
		d.hp.Checkpoint()
		return nil
	default:
		d.hp.CollectStable()
		d.stats.StableGCs++
		return nil
	}
}

// benign swallows lock conflicts: with an in-doubt transaction holding
// locks, conflicting operations are supposed to fail.
func benign(err error) error {
	if errors.Is(err, core.ErrConflict) {
		return nil
	}
	return err
}

// prepareOrResolve either prepares a new two-phase transaction (if none is
// outstanding) or delivers the coordinator's decision for the pending one.
func (d *Driver) prepareOrResolve() error {
	if d.pending != nil {
		return d.resolvePending()
	}
	slot := d.rng.Intn(d.slots)
	n := 1 + d.rng.Intn(4)
	vals := seq(d.rng.Uint64()%1_000_000, n)
	tr := d.hp.Begin()
	if err := buildList(tr, slot, 1, vals); err != nil {
		tr.Abort()
		return benign(err)
	}
	// Pending from before the call: a Prepare a device fault ends may
	// already have forced its record, and then recovery restores the
	// transaction in doubt. One that left no record comes back a loser,
	// and resolveInDoubt forgets it.
	d.pending = &pendingPrepared{id: word.TxID(tr.ID()), slot: slot, ifCommit: vals}
	if err := tr.Prepare(); err != nil {
		d.pending = nil
		return benign(err)
	}
	return nil
}

// resolvePending plays the coordinator: flip a coin, record the decision
// durably (the coordinator's log), and apply it.
func (d *Driver) resolvePending() error {
	p := *d.pending
	d.pending = nil
	p.commit = d.rng.Intn(2) == 0
	d.decided[p.id] = p
	return d.applyDecision(d.hp, p)
}

// applyDecision delivers a recorded decision to a heap (idempotent: the
// model is keyed by the decision, not by how many times it is delivered).
func (d *Driver) applyDecision(hp *core.Heap, p pendingPrepared) error {
	resolve := hp.ResolveAbort
	if p.commit {
		resolve = hp.ResolveCommit
	}
	n := len(d.doubt)
	if p.commit && hp == d.hp {
		d.doubt = append(d.doubt, slotWrite{p.slot, p.ifCommit})
	}
	err := resolve(p.id)
	d.doubt = d.doubt[:n]
	if err != nil || hp != d.hp {
		return err
	}
	if p.commit {
		d.model[p.slot] = p.ifCommit
		d.stats.Commits++
	} else {
		d.stats.Aborts++
	}
	return nil
}

// resolveInDoubt applies the coordinator's answer for every transaction a
// recovery restored in-doubt: a remembered decision is repeated; an
// undecided one is decided now.
func (d *Driver) resolveInDoubt(hp *core.Heap) error {
	for _, id := range hp.InDoubt() {
		if p, ok := d.decided[id]; ok {
			if err := d.applyDecision(hp, p); err != nil {
				return fmt.Errorf("repeating decision for %d: %w", id, err)
			}
			continue
		}
		if d.pending == nil || d.pending.id != id {
			return fmt.Errorf("in-doubt transaction %d unknown to the coordinator", id)
		}
		if hp != d.hp {
			return fmt.Errorf("twin recovered an undecided transaction before the primary resolved it")
		}
		if err := d.resolvePending(); err != nil {
			return err
		}
	}
	// A pending transaction that did NOT come back in-doubt lost its
	// (unforced) prepare record in the crash and was rolled back as an
	// ordinary loser: the decision never happened.
	if d.pending != nil && hp == d.hp && d.hp.InDoubt() == nil {
		d.pending = nil
	}
	return nil
}

// update is inTx on the driver's heap, counted.
func (d *Driver) update(commit bool, fn func(tr *core.Tx) error) (bool, error) {
	ok, err := inTx(d.hp, commit, fn)
	if ok {
		d.stats.Commits++
	} else if err == nil {
		d.stats.Aborts++
	}
	return ok, err
}

// write runs fn in a transaction that commits (or, with commit false,
// aborts) and, if it committed, makes vals slot's list in the model. A
// committing call leaves the write in doubt until it returns, so a device
// fault that panics out of it leaves the write on d.doubt.
func (d *Driver) write(slot int, vals []uint64, commit bool, fn func(tr *core.Tx) error) error {
	n := len(d.doubt)
	if commit {
		d.doubt = append(d.doubt, slotWrite{slot, vals})
	}
	ok, err := d.update(commit, fn)
	d.doubt = d.doubt[:n]
	if ok {
		d.model[slot] = vals
	}
	return err
}

// rebuildSlot replaces one root slot's list in a transaction; a quarter of
// the time the transaction aborts instead (and the model is untouched).
func (d *Driver) rebuildSlot() error {
	slot := d.rng.Intn(d.slots)
	n := 1 + d.rng.Intn(6)
	vals := seq(d.rng.Uint64()%1_000_000, n)
	commit := d.rng.Intn(4) != 0
	return d.write(slot, vals, commit, func(tr *core.Tx) error { return buildList(tr, slot, 1, vals) })
}

// mutateSlot updates one value in an existing committed list.
func (d *Driver) mutateSlot() error {
	slot := d.rng.Intn(d.slots)
	vals := d.model[slot]
	if len(vals) == 0 {
		return d.rebuildSlot()
	}
	idx := d.rng.Intn(len(vals))
	newVal := d.rng.Uint64() % 1_000_000
	commit := d.rng.Intn(3) != 0
	fresh := append([]uint64(nil), vals...)
	fresh[idx] = newVal
	return d.write(slot, fresh, commit, func(tr *core.Tx) error {
		node, err := tr.Root(slot)
		for i := 0; i < idx && err == nil; i++ {
			node, err = tr.Ptr(node, 0)
		}
		if err != nil {
			return err
		}
		return tr.SetData(node, 0, newVal)
	})
}

// churn allocates short-lived garbage (committed so it isn't undone —
// garbage is the collector's job, not abort's).
func (d *Driver) churn() error {
	_, err := d.update(true, func(tr *core.Tx) error {
		for i := 0; i < 5+d.rng.Intn(20); i++ {
			if _, err := tr.Alloc(1, 0, 1+d.rng.Intn(4)); err != nil {
				return err
			}
		}
		return nil
	})
	return err
}

// Verify checks the heap against the model: every committed list is intact
// and nothing else is visible. An outstanding prepared transaction is
// resolved first (the audit cannot read through its locks). A slot in doubt
// may hold either list; the model takes the one found.
func (d *Driver) Verify() error {
	if d.pending != nil {
		if err := d.resolvePending(); err != nil {
			return err
		}
	}
	tr := d.hp.Begin()
	defer tr.Abort()
	for slot := 0; slot < d.slots; slot++ {
		err := checkList(tr, slot, d.model[slot])
		for _, w := range d.doubt {
			if err != nil && w.slot == slot && checkList(tr, slot, w.vals) == nil {
				d.model[slot], err = w.vals, nil
			}
		}
		if err != nil {
			return err
		}
	}
	d.doubt = nil
	return nil
}

// flushSubset writes back each resident page with probability frac, drawn
// from rng: the part of the heap's volatile state a crash finds on disk.
func (d *Driver) flushSubset(rng *rand.Rand, frac float64) {
	d.hp.FlushResident(func(word.PageID) bool {
		if rng.Float64() < frac {
			d.stats.PagesKept++
			return true
		}
		return false
	})
}

// adopt makes a recovered (or promoted) heap the driver's and holds it to
// the model. The coordinator first resolves every transaction restored
// in-doubt (it holds locks the audit would trip over), repeating
// remembered decisions exactly.
func (d *Driver) adopt(hp *core.Heap) error {
	d.hp = hp
	d.stats.Recoveries++
	if err := d.resolveInDoubt(hp); err != nil {
		return err
	}
	return d.Verify()
}

// CrashAndRecover flushes a random subset of resident pages (flushFrac in
// [0,1]), crashes, recovers, and verifies the model. With checkTwin it
// also recovers an independent copy of the crash image and verifies it too
// (recovery determinism).
func (d *Driver) CrashAndRecover(flushFrac float64, checkTwin bool) error {
	d.flushSubset(d.rng, flushFrac)
	d.hp.Crash()
	d.stats.Crashes++

	// The twin's crash image, copied before the primary's recovery writes
	// to the backings.
	var twinDB, twinLB storage.Backing
	if checkTwin {
		var err error
		if twinDB, err = d.db.Clone(); err == nil {
			twinLB, err = d.lb.Clone()
		}
		if d.cfg.Dir != "" {
			// filestore puts a clone under clones/ in the cloned directory.
			defer os.RemoveAll(filepath.Join(d.cfg.Dir, "clones"))
			defer os.RemoveAll(filepath.Join(d.cfg.Dir, "log", "clones"))
		}
		if err != nil {
			return fmt.Errorf("twin copy: %w", err)
		}
	}

	hp, err := d.reopen()
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	if err := d.adopt(hp); err != nil {
		return fmt.Errorf("post-recovery: %w", err)
	}
	if checkTwin {
		return d.checkTwin(twinDB, twinLB)
	}
	return nil
}

// reopen is the restart of the crashed heap: core.Open over its backings,
// as a restarted process reopens its files. What the crash and any fault
// left in the bytes is all it sees; a wiped page store makes it media
// recovery.
func (d *Driver) reopen() (*core.Heap, error) { return core.Open(d.cfg, d.db, d.lb) }

// checkTwin recovers a second heap from a copy of the crash image, delivers
// it the coordinator's decisions, and holds it to the model.
func (d *Driver) checkTwin(db, lb storage.Backing) error {
	twin, err := core.Open(d.cfg, db, lb)
	if err != nil {
		return fmt.Errorf("twin recover: %w", err)
	}
	defer twin.Crash()
	if err := d.resolveInDoubt(twin); err != nil {
		return fmt.Errorf("twin resolution: %w", err)
	}
	saved := d.hp
	d.hp = twin
	err = d.Verify()
	d.hp = saved
	if err != nil {
		return fmt.Errorf("twin verify (recovery not deterministic): %w", err)
	}
	return nil
}

// Run executes steps operations, crashing with probability crashProb after
// each (each crash followed by recovery and verification).
func (d *Driver) Run(steps int, crashProb, flushFrac float64, checkTwin bool) error {
	for i := 0; i < steps; i++ {
		if err := d.Step(); err != nil {
			return fmt.Errorf("step %d: %w", i, err)
		}
		if d.rng.Float64() < crashProb {
			if err := d.CrashAndRecover(flushFrac, checkTwin); err != nil {
				return fmt.Errorf("crash after step %d: %w", i, err)
			}
		}
	}
	return nil
}

// MediaRecover simulates a total media failure and verifies the rebuilt
// heap against the model.
func (d *Driver) MediaRecover() error {
	hp, err := d.mediaFailure()
	if err != nil {
		return fmt.Errorf("media recover: %w", err)
	}
	if err := d.adopt(hp); err != nil {
		return fmt.Errorf("post-media-recovery: %w", err)
	}
	return nil
}

// mediaFailure crashes the heap, destroys every byte of its page store and
// reopens it: Open finds no master over a log that holds records and
// rebuilds the heap from the log alone, which must be untruncated. The
// caller adopts the result.
func (d *Driver) mediaFailure() (*core.Heap, error) {
	d.hp.Crash()
	d.stats.Crashes++
	names, err := d.db.List("")
	for _, name := range names {
		if err == nil {
			err = d.db.Remove(name)
		}
	}
	if err != nil {
		return nil, err
	}
	return d.reopen()
}
