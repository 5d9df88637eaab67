package crashtest

import (
	"fmt"

	"stableheap/internal/core"
)

// Every model in this package is made of committed lists: a root slot holds
// a singly linked list of one-pointer, one-data-word nodes, and the model of
// the slot is the values its last acknowledged commit left there.

// seq returns the n consecutive values base, base+1, ...
func seq(base uint64, n int) []uint64 {
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = base + uint64(i)
	}
	return vals
}

// buildList allocates one node of type typeID per value (one pointer, one
// data word), links them in order and stores the head in root slot — all
// inside tr, which the caller commits, prepares or aborts (also when
// buildList fails).
func buildList(tr *core.Tx, slot int, typeID uint16, vals []uint64) error {
	var head *core.Ref
	for i := len(vals) - 1; i >= 0; i-- {
		node, err := tr.Alloc(typeID, 1, 1)
		if err != nil {
			return err
		}
		if err := tr.SetData(node, 0, vals[i]); err != nil {
			return err
		}
		if err := tr.SetPtr(node, 0, head); err != nil {
			return err
		}
		head = node
	}
	return tr.SetRoot(slot, head)
}

// checkList walks the list under root slot inside tr and compares it with
// the acknowledged values: exactly len(want) nodes, in order. A short list
// lost a committed node, a long one kept an uncommitted write, a wrong
// value is a lost or phantom update.
func checkList(tr *core.Tx, slot int, want []uint64) error {
	node, err := tr.Root(slot)
	if err != nil {
		return fmt.Errorf("slot %d: root: %w", slot, err)
	}
	for i, w := range want {
		if node == nil {
			return fmt.Errorf("slot %d: list ends at %d, want %d values", slot, i, len(want))
		}
		v, err := tr.Data(node, 0)
		if err != nil {
			return fmt.Errorf("slot %d[%d]: %w", slot, i, err)
		}
		if v != w {
			return fmt.Errorf("slot %d[%d] = %d, want %d", slot, i, v, w)
		}
		if node, err = tr.Ptr(node, 0); err != nil {
			return fmt.Errorf("slot %d[%d].next: %w", slot, i, err)
		}
	}
	if node != nil {
		return fmt.Errorf("slot %d: list longer than the %d committed values", slot, len(want))
	}
	return nil
}

// inTx runs fn in a transaction on hp, which then commits — or, with commit
// false, aborts after all, as it does when fn fails. True means committed.
func inTx(hp *core.Heap, commit bool, fn func(tr *core.Tx) error) (bool, error) {
	tr := hp.Begin()
	if err := fn(tr); err != nil || !commit {
		tr.Abort()
		return false, err
	}
	if err := tr.Commit(); err != nil {
		return false, err
	}
	return true, nil
}
