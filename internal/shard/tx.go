package shard

import (
	"errors"
	"fmt"
	"sort"

	"stableheap/internal/core"
	"stableheap/internal/wal"
	"stableheap/internal/word"
)

var (
	// ErrCrossPartition rejects a pointer or root assignment that would
	// span partitions: core addresses are meaningful only on the heap that
	// allocated them.
	ErrCrossPartition = errors.New("shard: pointer would cross partitions")
	// ErrTxDone rejects operations on a finished cluster transaction.
	ErrTxDone = errors.New("shard: transaction already finished")
	// ErrInterrupted is returned when the crash hook froze a 2PC commit
	// mid-protocol; the harness crashes the cluster next.
	ErrInterrupted = errors.New("shard: commit interrupted by crash hook")
)

// CrashPoint names the 2PC protocol states at which the crash hook fires.
type CrashPoint int

const (
	// PointBeforePrepare: coordinator logged BEGIN, no branch prepared.
	PointBeforePrepare CrashPoint = iota
	// PointAfterPrepare: the given partition's branch just force-prepared.
	PointAfterPrepare
	// PointAfterDecision: commit decision is durable, no branch committed.
	PointAfterDecision
	// PointAfterFanout: the given partition's branch just committed.
	PointAfterFanout
)

func (p CrashPoint) String() string {
	switch p {
	case PointBeforePrepare:
		return "before-prepare"
	case PointAfterPrepare:
		return "after-prepare"
	case PointAfterDecision:
		return "after-decision"
	case PointAfterFanout:
		return "after-fanout"
	}
	return fmt.Sprintf("CrashPoint(%d)", int(p))
}

// Ref is a partition-qualified object reference.
type Ref struct {
	Part int
	r    *core.Ref
}

// IsNil reports whether the reference is the nil pointer.
func (r Ref) IsNil() bool { return r.r == nil }

// Addr returns the object's current address within its partition (0 for
// nil). Addresses are partition-local: equal addresses on different
// partitions name unrelated objects.
func (r Ref) Addr() word.Addr {
	if r.r == nil {
		return 0
	}
	return r.r.Addr()
}

// Tx is a cluster transaction: per-partition branch transactions opened
// lazily on first touch. With one live branch, Commit is the ordinary
// single-heap commit; with several it runs two-phase commit through the
// cluster coordinator.
type Tx struct {
	c        *Cluster
	branches []*core.Tx
	done     bool
}

// Begin starts a cluster transaction.
func (cl *Cluster) Begin() *Tx {
	return &Tx{c: cl, branches: make([]*core.Tx, len(cl.parts))}
}

// branch returns (opening if needed) the transaction on partition p.
func (t *Tx) branch(p int) *core.Tx {
	if t.branches[p] == nil {
		t.branches[p] = t.c.parts[p].Begin()
	}
	return t.branches[p]
}

// live returns the touched partitions in ascending order. Ascending is the
// lock-order extension: every 2PC commit prepares its branches in the same
// global partition order, so two distributed commits can never deadlock on
// prepare ordering alone (per-object waits remain bounded by LockWait).
func (t *Tx) live() []int {
	var ps []int
	for p, b := range t.branches {
		if b != nil {
			ps = append(ps, p)
		}
	}
	sort.Ints(ps)
	return ps
}

// AllocAt allocates a fresh object on an explicit partition.
func (t *Tx) AllocAt(part int, typeID uint16, nptrs, ndata int) (Ref, error) {
	if t.done {
		return Ref{}, ErrTxDone
	}
	r, err := t.branch(part).Alloc(typeID, nptrs, ndata)
	return Ref{Part: part, r: r}, err
}

// AllocFor allocates on the home partition of a root slot.
func (t *Tx) AllocFor(slot int, typeID uint16, nptrs, ndata int) (Ref, error) {
	return t.AllocAt(t.c.PartitionOf(slot), typeID, nptrs, ndata)
}

// Root reads a root slot on its home partition.
func (t *Tx) Root(slot int) (Ref, error) {
	if t.done {
		return Ref{}, ErrTxDone
	}
	p := t.c.PartitionOf(slot)
	r, err := t.branch(p).Root(slot)
	return Ref{Part: p, r: r}, err
}

// SetRoot stores val into a root slot; val must live on the slot's home
// partition (or be nil).
func (t *Tx) SetRoot(slot int, val Ref) error {
	if t.done {
		return ErrTxDone
	}
	p := t.c.PartitionOf(slot)
	if val.r != nil && val.Part != p {
		return ErrCrossPartition
	}
	return t.branch(p).SetRoot(slot, val.r)
}

// VolRoot reads a volatile root slot on its home partition.
func (t *Tx) VolRoot(slot int) (Ref, error) {
	if t.done {
		return Ref{}, ErrTxDone
	}
	p := t.c.PartitionOf(slot)
	r, err := t.branch(p).VolRoot(slot)
	return Ref{Part: p, r: r}, err
}

// SetVolRoot stores val into a volatile root slot, same-partition only.
func (t *Tx) SetVolRoot(slot int, val Ref) error {
	if t.done {
		return ErrTxDone
	}
	p := t.c.PartitionOf(slot)
	if val.r != nil && val.Part != p {
		return ErrCrossPartition
	}
	return t.branch(p).SetVolRoot(slot, val.r)
}

// Ptr reads a pointer field; the result lives on the same partition.
func (t *Tx) Ptr(r Ref, i int) (Ref, error) {
	if t.done {
		return Ref{}, ErrTxDone
	}
	p, err := t.branch(r.Part).Ptr(r.r, i)
	return Ref{Part: r.Part, r: p}, err
}

// SetPtr stores a pointer field; val must live on r's partition.
func (t *Tx) SetPtr(r Ref, i int, val Ref) error {
	if t.done {
		return ErrTxDone
	}
	if val.r != nil && val.Part != r.Part {
		return ErrCrossPartition
	}
	return t.branch(r.Part).SetPtr(r.r, i, val.r)
}

// Data reads a data word.
func (t *Tx) Data(r Ref, j int) (uint64, error) {
	if t.done {
		return 0, ErrTxDone
	}
	return t.branch(r.Part).Data(r.r, j)
}

// SetData writes a data word.
func (t *Tx) SetData(r Ref, j int, v uint64) error {
	if t.done {
		return ErrTxDone
	}
	return t.branch(r.Part).SetData(r.r, j, v)
}

// AddData atomically adds delta to a data word.
func (t *Tx) AddData(r Ref, j int, delta uint64) error {
	if t.done {
		return ErrTxDone
	}
	return t.branch(r.Part).AddData(r.r, j, delta)
}

// Shape returns an object's type id and field counts.
func (t *Tx) Shape(r Ref) (typeID uint16, nptrs, ndata int, err error) {
	if t.done {
		return 0, 0, 0, ErrTxDone
	}
	return t.branch(r.Part).Shape(r.r)
}

// Err returns the first branch error, if any branch has failed.
func (t *Tx) Err() error {
	for _, b := range t.branches {
		if b != nil {
			if err := b.Err(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Abort rolls back every live branch.
func (t *Tx) Abort() error {
	if t.done {
		return ErrTxDone
	}
	t.done = true
	t.abortBranches(t.live())
	return nil
}

// abortBranches aborts the given branches, tolerating ones the heap
// already auto-aborted (conflict failures leave the branch finished).
func (t *Tx) abortBranches(ps []int) {
	for _, p := range ps {
		_ = t.branches[p].Abort()
	}
}

// Commit commits the cluster transaction. Zero live branches is a no-op;
// one commits exactly as on a lone heap; several run two-phase commit:
//
//	coordinator: BEGIN(gid, participants)          — unforced
//	each branch: PREPARE                           — forced, ascending order
//	coordinator: DECIDE-COMMIT(gid, participants)  — FORCED (point of no return)
//	each branch: COMMIT                            — applies the decision
//	coordinator: END(gid)                          — unforced
//
// Any prepare failure aborts every branch and logs an unforced abort
// decision; a crash anywhere resolves by presumed abort against the
// coordinator's durable decisions.
func (t *Tx) Commit() error {
	if t.done {
		return ErrTxDone
	}
	t.done = true
	live := t.live()
	switch len(live) {
	case 0:
		return nil
	case 1:
		err := t.branches[live[0]].Commit()
		if err == nil {
			t.c.singleCommits.Add(1)
		}
		return err
	}
	return t.commitTwoPC(live)
}

// Terminate finishes an interrupted (crash-hook-frozen) 2PC commit the
// way participants would after losing their coordinator mid-protocol:
// each live branch asks the (possibly restarted) coordinator for the
// transaction's outcome and applies it, presumed abort settling every
// branch without a durable commit decision. stale lists partitions whose
// branch handle died with a partition crash — their recovery already
// settled the branch. Crash harnesses only; a completed commit is a no-op.
func (t *Tx) Terminate(stale ...int) {
	skip := make(map[int]bool, len(stale))
	for _, p := range stale {
		skip[p] = true
	}
	for p, b := range t.branches {
		if b == nil || skip[p] {
			continue
		}
		if t.c.coord.outcome(uint32(p), b.ID()) {
			_ = b.Commit()
		} else {
			_ = b.Abort()
		}
	}
}

func (t *Tx) commitTwoPC(live []int) error {
	cl := t.c
	parts := make([]wal.TwoPCParticipant, len(live))
	branchIDs := make(map[int]word.TxID, len(live))
	for i, p := range live {
		id := t.branches[p].ID()
		parts[i] = wal.TwoPCParticipant{Part: uint32(p), TxID: id}
		branchIDs[p] = id
	}
	gid := cl.coord.begin(parts)
	cl.recordGID(gid, branchIDs)

	if cl.hook(PointBeforePrepare, -1) {
		return ErrInterrupted
	}
	for _, p := range live {
		if err := t.branches[p].Prepare(); err != nil {
			t.abortBranches(live)
			cl.coord.decideAbort(gid, parts)
			cl.twopcAborts.Add(1)
			return err
		}
		if cl.hook(PointAfterPrepare, p) {
			return ErrInterrupted
		}
	}

	cl.coord.decideCommit(gid, parts)
	if cl.hook(PointAfterDecision, -1) {
		return ErrInterrupted
	}

	for _, p := range live {
		if err := t.branches[p].Commit(); err != nil {
			// The decision is durable; a branch refusing it is a bug, not a
			// recoverable outcome — recovery would commit this branch.
			return fmt.Errorf("shard: partition %d rejected a durably decided commit: %w", p, err)
		}
		if cl.hook(PointAfterFanout, p) {
			return ErrInterrupted
		}
	}
	cl.coord.end(gid)
	cl.twopcCommits.Add(1)
	return nil
}
