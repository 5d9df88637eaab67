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
	pendingTrunc word.LSN
	stableLSN    word.LSN // checkpoint currently named by the master
	stableTrunc  word.LSN
	prevTake     word.LSN // LSN of the previous Take: the cleaner horizon

	Met CheckpointMetrics
}

// CheckpointMetrics counts checkpoint activity.
type CheckpointMetrics struct {
	Taken    obs.Counter `obs:"checkpoint_taken_total"`
	Promoted obs.Counter `obs:"checkpoint_promoted_total"`
	Cleaned  obs.Counter `obs:"checkpoint_cleaned_pages_total"` // pages written back by the checkpoint-driven cleaner
}

// NewCheckpointer creates a checkpointer. If the master block already names
// a checkpoint (after recovery), pass it as last so truncation stays sound.
func NewCheckpointer(log *wal.Manager, mem *vm.Store, last word.LSN) *Checkpointer {
	return &Checkpointer{log: log, mem: mem, stableLSN: last, stableTrunc: last}
}

// Take builds and spools a checkpoint record: the caller fills every field
// except Dirty, which the checkpointer composes from the store's dirty
// page table. Returns the record's LSN.
func (c *Checkpointer) Take(cp wal.CheckpointRec) word.LSN {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Checkpoint-driven page cleaning: write back pages dirtied before
	// the previous checkpoint, so the redo window stays roughly two
	// checkpoint intervals.
	if c.prevTake != word.NilLSN {
		c.Met.Cleaned.Add(uint64(c.mem.FlushOlderThan(c.prevTake)))
	}
	cp.Dirty = c.mem.DirtyPages()

	lsn := c.log.Append(cp)

	// The truncation point this checkpoint will justify once stable.
	trunc := lsn
	for _, dp := range cp.Dirty {
		if dp.RecLSN != word.NilLSN && dp.RecLSN < trunc {
			trunc = dp.RecLSN
		}
	}
	for _, te := range cp.Txs {
		if te.FirstLSN < trunc {
			trunc = te.FirstLSN
		}
	}
	c.pendingLSN = lsn
	c.pendingTrunc = trunc
	c.prevTake = lsn
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
	c.stableLSN = c.pendingLSN
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

// TruncationPoint returns the lowest LSN the log must retain: everything
// below it is covered by the stable checkpoint, flushed pages, and
// completed transactions.
func (c *Checkpointer) TruncationPoint() word.LSN {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.truncationPointLocked()
}

func (c *Checkpointer) truncationPointLocked() word.LSN {
	if c.stableLSN == word.NilLSN {
		return word.NilLSN
	}
	return c.stableTrunc
}

// TruncateLog frees log space below the truncation point (segment
// granularity; a no-op if nothing is reclaimable).
func (c *Checkpointer) TruncateLog() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p := c.truncationPointLocked(); p != word.NilLSN && p <= c.log.StableLSN() {
		c.log.Truncate(p)
	}
}
