// Package workload provides the synthetic workloads that stand in for the
// paper's motivating applications (CAD, CASE, office information systems —
// Ch. 1) and drive the examples and the benchmark harness: a banking
// transfer mix, an OO7-flavoured object-database graph, and a CAD design
// tree with editing sessions. All generators are deterministic under a
// caller-provided seed and use only the public stableheap API.
package workload

import (
	"fmt"
	"math/rand"

	"stableheap"
)

// Type ids used by the generators (purely informational tags).
const (
	TypeDir    uint16 = 100
	TypeAcct   uint16 = 101
	TypeModule uint16 = 110
	TypeAssy   uint16 = 111
	TypeComp   uint16 = 112
	TypeAtom   uint16 = 113
	TypeNode   uint16 = 120
	TypeLeaf   uint16 = 121
)

// Bank is a set of accounts stored in the stable heap behind a fixed
// two-level directory, supporting serializable transfers. The invariant —
// total balance is constant across any crash — is the classic recovery
// acid test.
type Bank struct {
	h        *stableheap.Heap
	slot     int
	fanout   int
	accounts int
}

// NewBank creates the account tree under stable root slot. accounts must
// be ≤ fanout², with fanout ≤ the heap's pointer-field limit.
func NewBank(h *stableheap.Heap, slot, accounts, fanout int, initial uint64) (*Bank, error) {
	if accounts > fanout*fanout {
		return nil, fmt.Errorf("workload: %d accounts exceed fanout²=%d", accounts, fanout*fanout)
	}
	b := &Bank{h: h, slot: slot, fanout: fanout, accounts: accounts}
	tx := h.Begin()
	root, err := tx.Alloc(TypeDir, fanout, 0)
	if err != nil {
		return nil, abortWith(tx, err)
	}
	for i := 0; i < accounts; i += fanout {
		leafDir, err := tx.Alloc(TypeDir, fanout, 0)
		if err != nil {
			return nil, abortWith(tx, err)
		}
		for j := i; j < i+fanout && j < accounts; j++ {
			acct, err := tx.Alloc(TypeAcct, 0, 1)
			if err != nil {
				return nil, abortWith(tx, err)
			}
			if err := tx.SetData(acct, 0, initial); err != nil {
				return nil, abortWith(tx, err)
			}
			if err := tx.SetPtr(leafDir, j-i, acct); err != nil {
				return nil, abortWith(tx, err)
			}
		}
		if err := tx.SetPtr(root, i/fanout, leafDir); err != nil {
			return nil, abortWith(tx, err)
		}
	}
	if err := tx.SetRoot(slot, root); err != nil {
		return nil, abortWith(tx, err)
	}
	if err := tx.Commit(); err != nil {
		return nil, err
	}
	return b, nil
}

// account navigates to account i inside tx.
func (b *Bank) account(tx *stableheap.Tx, i int) (*stableheap.Ref, error) {
	root, err := tx.Root(b.slot)
	if err != nil {
		return nil, err
	}
	leafDir, err := tx.Ptr(root, i/b.fanout)
	if err != nil {
		return nil, err
	}
	return tx.Ptr(leafDir, i%b.fanout)
}

// Transfer atomically moves amount from one account to another; it returns
// stableheap.ErrConflict if locks could not be acquired (the caller
// retries) and a balance error aborts the transaction (insufficient
// funds).
func (b *Bank) Transfer(from, to int, amount uint64) error {
	tx := b.h.Begin()
	src, err := b.account(tx, from)
	if err != nil {
		return abortWith(tx, err)
	}
	dst, err := b.account(tx, to)
	if err != nil {
		return abortWith(tx, err)
	}
	sv, err := tx.Data(src, 0)
	if err != nil {
		return abortWith(tx, err)
	}
	if sv < amount {
		tx.Abort()
		return fmt.Errorf("workload: insufficient funds in %d", from)
	}
	dv, err := tx.Data(dst, 0)
	if err != nil {
		return abortWith(tx, err)
	}
	_ = dv
	// Balances use logical (delta) updates: no before-images in the log,
	// and abort compensates with the negated delta (§2.2.4).
	if err := tx.AddData(src, 0, -amount); err != nil {
		return abortWith(tx, err)
	}
	if err := tx.AddData(dst, 0, amount); err != nil {
		return abortWith(tx, err)
	}
	return tx.Commit()
}

// Total sums every balance in one transaction (the audit).
func (b *Bank) Total() (uint64, error) {
	tx := b.h.Begin()
	defer tx.Abort()
	var total uint64
	for i := 0; i < b.accounts; i++ {
		acct, err := b.account(tx, i)
		if err != nil {
			return 0, err
		}
		v, err := tx.Data(acct, 0)
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// Reattach rebinds the bank to a recovered heap.
func (b *Bank) Reattach(h *stableheap.Heap) { b.h = h }

// RunMix executes n random transfers (some of which fail on conflicts or
// insufficient funds — failures still exercise abort paths). Returns the
// number that committed.
func (b *Bank) RunMix(rng *rand.Rand, n int, maxAmount uint64) (int, error) {
	committed := 0
	for i := 0; i < n; i++ {
		from := rng.Intn(b.accounts)
		to := rng.Intn(b.accounts)
		if from == to {
			continue
		}
		err := b.Transfer(from, to, 1+rng.Uint64()%maxAmount)
		switch err {
		case nil:
			committed++
		case stableheap.ErrConflict:
			// single-threaded drivers never conflict; concurrent
			// drivers retry
		default:
			if err.Error()[:len("workload: insufficient")] == "workload: insufficient" {
				continue
			}
			return committed, err
		}
	}
	return committed, nil
}

func abortWith(tx *stableheap.Tx, err error) error {
	tx.Abort()
	return err
}
