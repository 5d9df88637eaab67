package histcheck

import (
	"fmt"

	"stableheap/internal/word"
)

// This file extends the checker across a partitioned heap (internal/shard):
// each partition runs its own Recorder (so Relocate rebasing and variable
// identity stay partition-scoped — address reuse in one partition can never
// alias a variable of another), and the global checker merges the
// per-partition histories into one trace over a partition-qualified
// variable space, with the branches of each cross-partition (2PC)
// transaction folded into a single global transaction node. A DSG cycle
// that threads through several partitions — invisible to every local
// checker — closes in the merged graph and is reported like any local one.
// The merge additionally rejects any history in which a global transaction
// is visible as committed in one partition and aborted in another: the
// atomicity half of two-phase commit.

// PartitionHistory is one partition's recorded trace plus the mapping from
// its local branch transaction ids to global (cross-partition) transaction
// ids. Local transactions absent from GlobalTx are single-partition and
// get a synthesized globally unique id; mapped ids must be below 1<<48 so
// the synthesized range (part+1)<<48 cannot collide.
type PartitionHistory struct {
	Part     int
	H        History
	GlobalTx map[word.TxID]word.TxID
}

// globalID returns the merged-trace transaction id for a local id.
func (p PartitionHistory) globalID(local word.TxID) word.TxID {
	if local == 0 {
		return 0 // "initial version" marker is partition-independent
	}
	if g, ok := p.GlobalTx[local]; ok {
		return g
	}
	return word.TxID(uint64(p.Part+1)<<48 | uint64(local))
}

// MergeGlobal rebases every partition's history into one trace: variables
// become partition-qualified (so identical addresses in different
// partitions stay distinct), 2PC branches collapse onto their global
// transaction id, and ops are concatenated in (partition, local order). It
// returns a *Violation if a global transaction committed in one partition
// but aborted in another.
func MergeGlobal(parts []PartitionHistory) (History, error) {
	type globalVar struct {
		part int
		v    uint32
	}
	varID := make(map[globalVar]uint32)
	var nextVar uint32

	// outcome[g][part] is the branch's final recorded fate in that
	// partition: the atomicity audit below wants the per-partition view,
	// not just the union.
	type fate uint8
	const (
		fateNone fate = iota
		fateCommit
		fateAbort
	)
	outcome := make(map[word.TxID]map[int]fate)

	var merged History
	for _, p := range parts {
		for _, op := range p.H.Ops {
			g := op
			g.Tx = p.globalID(op.Tx)
			g.FromTx = p.globalID(op.FromTx)
			if op.Kind == OpRead || op.Kind == OpWrite {
				key := globalVar{p.Part, op.Var}
				v, ok := varID[key]
				if !ok {
					nextVar++
					v = nextVar
					varID[key] = v
				}
				g.Var = v
			}
			if _, mapped := p.GlobalTx[op.Tx]; mapped && (op.Kind == OpCommit || op.Kind == OpAbort) {
				if outcome[g.Tx] == nil {
					outcome[g.Tx] = make(map[int]fate)
				}
				if op.Kind == OpCommit {
					outcome[g.Tx][p.Part] = fateCommit
				} else {
					outcome[g.Tx][p.Part] = fateAbort
				}
			}
			merged.Ops = append(merged.Ops, g)
		}
	}

	for g, fates := range outcome {
		var committed, aborted []int
		for part, f := range fates {
			switch f {
			case fateCommit:
				committed = append(committed, part)
			case fateAbort:
				aborted = append(aborted, part)
			}
		}
		if len(committed) > 0 && len(aborted) > 0 {
			return merged, &Violation{
				Reason: fmt.Sprintf("global tx %d violates 2PC atomicity: committed in partitions %v, aborted in partitions %v",
					g, committed, aborted),
				Cycle: []word.TxID{g},
				H:     merged,
			}
		}
	}
	return merged, nil
}

// CheckGlobal verifies global conflict-serializability of a partitioned
// execution: the merged history must pass the DSG cycle check, and every
// cross-partition transaction must have a single global outcome.
func CheckGlobal(parts []PartitionHistory) error {
	merged, err := MergeGlobal(parts)
	if err != nil {
		return err
	}
	return Check(merged)
}
