package shard

import (
	"sync"

	"stableheap/internal/storage"
	"stableheap/internal/wal"
	"stableheap/internal/word"
)

// Coordinator owns the cluster's two-phase-commit decision log: a
// storage.Log (in memory, or on files under <dir>/coord) holding
// wal-encoded TwoPCBegin / TwoPCDecide / TwoPCEnd records. The protocol is
// presumed abort:
//
//   - BEGIN is appended unforced — losing it in a crash costs nothing;
//   - a COMMIT decision is FORCED before any participant branch commits
//     (the single point of no return) — through wal.Manager.Force, with the
//     coordinator's mutex released, so concurrent cluster transactions share
//     the decision force exactly as local commits share the commit force;
//   - ABORT decisions are unforced audit trail: an in-doubt branch with no
//     durable commit decision resolves to abort, record or not;
//   - END is appended unforced once every branch applied the decision, so
//     a future truncation pass can bound the log.
type Coordinator struct {
	mu  sync.Mutex
	log *wal.Manager
	// commits maps a prepared branch (partition, local txid) to the gid of
	// its durable commit decision. Presumed abort: absence means abort.
	commits map[wal.TwoPCParticipant]uint64
	decided map[uint64]bool // gid → decided-commit (for End bookkeeping)
	ended   map[uint64]bool
	nextGID uint64
}

// newCoordinator wraps a fresh (empty) decision log.
func newCoordinator(log *storage.Log) *Coordinator {
	return &Coordinator{
		log:     wal.NewManager(log),
		commits: make(map[wal.TwoPCParticipant]uint64),
		decided: make(map[uint64]bool),
		ended:   make(map[uint64]bool),
		nextGID: 1,
	}
}

// recoverCoordinator rebuilds the decision state from a surviving log:
// only durable records remain after a device crash, and the log cut any
// torn final record when it was opened. An undecodable record is
// corruption and panics with its typed error, as a device read does.
func recoverCoordinator(log *storage.Log) *Coordinator {
	c := newCoordinator(log)
	c.log.Scan(log.TruncLSN(), false, func(_ word.LSN, rec wal.Record) bool {
		switch r := rec.(type) {
		case wal.TwoPCBeginRec:
			if r.GID >= c.nextGID {
				c.nextGID = r.GID + 1
			}
		case wal.TwoPCDecideRec:
			if r.GID >= c.nextGID {
				c.nextGID = r.GID + 1
			}
			c.decided[r.GID] = r.Commit
			if r.Commit {
				for _, p := range r.Parts {
					c.commits[p] = r.GID
				}
			}
		case wal.TwoPCEndRec:
			c.ended[r.GID] = true
		}
		return true
	})
	return c
}

// begin assigns a gid and logs the participant set (unforced).
func (c *Coordinator) begin(parts []wal.TwoPCParticipant) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	gid := c.nextGID
	c.nextGID++
	c.log.Append(wal.TwoPCBeginRec{GID: gid, Parts: parts})
	return gid
}

// decideCommit forces the commit decision: after this returns, the global
// transaction is committed no matter who crashes.
func (c *Coordinator) decideCommit(gid uint64, parts []wal.TwoPCParticipant) {
	c.log.Force(c.log.Append(wal.TwoPCDecideRec{GID: gid, Commit: true, Parts: parts}))
	c.mu.Lock()
	defer c.mu.Unlock()
	c.decided[gid] = true
	for _, p := range parts {
		c.commits[p] = gid
	}
}

// decideAbort appends the abort decision unforced (audit trail only —
// presumed abort makes the record redundant for correctness).
func (c *Coordinator) decideAbort(gid uint64, parts []wal.TwoPCParticipant) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.log.Append(wal.TwoPCDecideRec{GID: gid, Commit: false, Parts: parts})
	c.decided[gid] = false
}

// end records that every participant applied the decision.
func (c *Coordinator) end(gid uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ended[gid] {
		return
	}
	c.log.Append(wal.TwoPCEndRec{GID: gid})
	c.ended[gid] = true
}

// endAllDecided appends END for every decided-but-unended gid; the
// post-recovery resolve pass calls it once all live branches are settled.
func (c *Coordinator) endAllDecided() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for gid := range c.decided {
		if !c.ended[gid] {
			c.log.Append(wal.TwoPCEndRec{GID: gid})
			c.ended[gid] = true
		}
	}
}

// outcome answers the presumed-abort question for one branch.
func (c *Coordinator) outcome(part uint32, id word.TxID) (commit bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, commit = c.commits[wal.TwoPCParticipant{Part: part, TxID: id}]
	return commit
}

// Log exposes the decision log device (introspection, crash harnesses).
func (c *Coordinator) Log() *storage.Log { return c.log.Device() }
