package recovery

import (
	"sync"

	"stableheap/internal/obs"
	"stableheap/internal/vm"
	"stableheap/internal/wal"
	"stableheap/internal/word"
)

// Checkpointer takes the paper's cheap fuzzy checkpoints (§2.2.4): one log
// record, no synchronous writes. The master block is updated lazily, once
// the record has reached stable storage on the back of ordinary log forces
// — recovery simply uses the previous checkpoint until then.
//
// The checkpointer is internally synchronized: commit paths and the
// group-commit flusher call Promote concurrently, and the master-block
// read-modify-write must not interleave.
type Checkpointer struct {
	mu  sync.Mutex
	log *wal.Manager
	mem *vm.Store

	pendingLSN   word.LSN // appended checkpoint not yet in the master
	pendingTrunc word.LSN // its floor (wal.CheckpointRec.Floor)
	stableTrunc  word.LSN // the floor of the checkpoint the master names

	Met CheckpointMetrics
}

// CheckpointMetrics counts checkpoint activity.
type CheckpointMetrics struct {
	Taken    obs.Counter `obs:"checkpoint_taken_total"`
	Promoted obs.Counter `obs:"checkpoint_promoted_total"`
	Cleaned  obs.Counter `obs:"checkpoint_cleaned_pages_total"` // pages a checkpoint handed the page cleaner (vm.Store.OweLogged)
}

// NewCheckpointer creates a checkpointer. It truncates nothing until a
// checkpoint it took is promoted.
func NewCheckpointer(log *wal.Manager, mem *vm.Store) *Checkpointer {
	return &Checkpointer{log: log, mem: mem}
}

// Take builds and spools a checkpoint record: the caller fills every field
// except Dirty, which the checkpointer composes from the store's dirty
// page table. Returns the record's LSN. The caller has the heap stopped.
//
// Checkpoint-driven write-back keeps the redo window to about two
// checkpoint intervals without writing in the stop. Take first drains what
// the last checkpoint still owes — normally nothing, the page cleaner
// having written it after the commits since — then hands the cleaner every
// page holding a logged write not yet on disk. Those are still listed dirty
// here, and the next checkpoint finds them clean. A finished collection's
// to-space still owed is left to the cleaner too: the store lists the
// from-space that collection freed among the dirty pages until it is paid
// (vm.Store.DirtyPages), so a recovery from this record can still replay
// the collection's copies (DESIGN.md §4.2a).
func (c *Checkpointer) Take(cp wal.CheckpointRec) word.LSN {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mem.DrainCheckpoints()
	c.Met.Cleaned.Add(uint64(c.mem.OweLogged()))
	cp.Dirty = c.mem.DirtyPages()

	lsn := c.log.Append(cp)
	c.pendingLSN = lsn
	c.pendingTrunc = cp.Floor(lsn)
	c.Met.Taken.Inc()
	c.promoteLocked()
	return lsn
}

// Promote publishes the pending checkpoint to the master block if ordinary
// log traffic has since made it stable. Call after commits; never forces.
func (c *Checkpointer) Promote() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.promoteLocked()
}

func (c *Checkpointer) promoteLocked() {
	if c.pendingLSN == word.NilLSN || !c.log.IsStable(c.pendingLSN) {
		return
	}
	m := c.mem.Disk().Master()
	m.Formatted = true
	m.CheckpointLSN = c.pendingLSN
	c.mem.Disk().SetMaster(m)
	c.stableTrunc = c.pendingTrunc
	c.pendingLSN = word.NilLSN
	c.Met.Promoted.Inc()
}

// ForcePromote forces the log through the pending checkpoint and publishes
// it (clean shutdown and end of recovery — the only places a synchronous
// write is acceptable outside commit).
func (c *Checkpointer) ForcePromote() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pendingLSN == word.NilLSN {
		return
	}
	c.log.Force(c.pendingLSN)
	c.promoteLocked()
}

// TruncateLog frees log space below the floor of the checkpoint the
// master names (segment granularity; a no-op before one is promoted). It
// truncates with mu released, so a promotion never waits for it: the
// floor only rises, and a stale, lower one frees nothing.
func (c *Checkpointer) TruncateLog() {
	c.mu.Lock()
	p := c.stableTrunc
	c.mu.Unlock()
	if p != word.NilLSN && p <= c.log.StableLSN() {
		c.log.Truncate(p)
	}
}
