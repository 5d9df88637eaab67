package main

import (
	"errors"
	"math/rand"

	"stableheap"
	"stableheap/internal/workload"
)

// The operations below repeat workload.Bank.Transfer, workload.OO7.UpdateT2
// and workload.OO7.ReplaceComposite call for call (ops_test.go checks that
// they leave the same log volume and the same data), written here so that
// every public stableheap call goes through tx and can carry a span.
// Set-up and verification use the workload package itself.

// tx wraps one transaction; k is nil outside a run that records spans.
type tx struct {
	t *stableheap.Tx
	k *track
}

func (x tx) timed() bool { return x.k != nil && x.k.children }

func (x tx) Root(i int) (*stableheap.Ref, error) {
	if !x.timed() {
		return x.t.Root(i)
	}
	s := x.k.tr.now()
	r, err := x.t.Root(i)
	x.k.add(spTxRead, s)
	return r, err
}

func (x tx) Ptr(r *stableheap.Ref, i int) (*stableheap.Ref, error) {
	if !x.timed() {
		return x.t.Ptr(r, i)
	}
	s := x.k.tr.now()
	v, err := x.t.Ptr(r, i)
	x.k.add(spTxRead, s)
	return v, err
}

func (x tx) Data(r *stableheap.Ref, j int) (uint64, error) {
	if !x.timed() {
		return x.t.Data(r, j)
	}
	s := x.k.tr.now()
	v, err := x.t.Data(r, j)
	x.k.add(spTxRead, s)
	return v, err
}

func (x tx) SetPtr(r *stableheap.Ref, i int, v *stableheap.Ref) error {
	if !x.timed() {
		return x.t.SetPtr(r, i, v)
	}
	s := x.k.tr.now()
	err := x.t.SetPtr(r, i, v)
	x.k.add(spTxWrite, s)
	return err
}

func (x tx) SetData(r *stableheap.Ref, j int, v uint64) error {
	if !x.timed() {
		return x.t.SetData(r, j, v)
	}
	s := x.k.tr.now()
	err := x.t.SetData(r, j, v)
	x.k.add(spTxWrite, s)
	return err
}

func (x tx) AddData(r *stableheap.Ref, j int, d uint64) error {
	if !x.timed() {
		return x.t.AddData(r, j, d)
	}
	s := x.k.tr.now()
	err := x.t.AddData(r, j, d)
	x.k.add(spTxWrite, s)
	return err
}

func (x tx) Alloc(typeID uint16, nptrs, ndata int) (*stableheap.Ref, error) {
	if !x.timed() {
		return x.t.Alloc(typeID, nptrs, ndata)
	}
	s := x.k.tr.now()
	r, err := x.t.Alloc(typeID, nptrs, ndata)
	x.k.add(spTxAlloc, s)
	return r, err
}

func (x tx) Commit() error {
	if x.k == nil || !x.k.traced {
		return x.t.Commit()
	}
	s := x.k.tr.now()
	err := x.t.Commit()
	x.k.add(spTxCommit, s)
	return err
}

// Abort ends the transaction; its error is dropped because every caller
// already holds the error that made it give up (or, for a read, has
// nothing to undo).
func (x tx) Abort() {
	if x.k == nil || !x.k.traced {
		_ = x.t.Abort()
		return
	}
	s := x.k.tr.now()
	_ = x.t.Abort()
	x.k.add(spTxAbort, s)
}

func (x tx) abortWith(err error) error {
	x.Abort()
	return err
}

func begin(h *stableheap.Heap, k *track) tx {
	if k == nil || !k.traced {
		return tx{t: h.Begin(), k: k}
	}
	s := k.tr.now()
	t := h.Begin()
	k.add(spTxBegin, s)
	return tx{t: t, k: k}
}

// bankShape is what the driver must know of workload.Bank's layout: a
// root directory of leaf directories of single-word accounts.
type bankShape struct {
	slot, accounts, fanout int
}

func (b bankShape) account(x tx, i int) (*stableheap.Ref, error) {
	root, err := x.Root(b.slot)
	if err != nil {
		return nil, err
	}
	leaf, err := x.Ptr(root, i/b.fanout)
	if err != nil {
		return nil, err
	}
	return x.Ptr(leaf, i%b.fanout)
}

var errInsufficient = errors.New("benchmark: insufficient funds")

// transferOpen performs a transfer up to, but not including, its commit.
func (b bankShape) transferOpen(h *stableheap.Heap, k *track, from, to int, amount uint64) (tx, error) {
	x := begin(h, k)
	src, err := b.account(x, from)
	if err != nil {
		return x, x.abortWith(err)
	}
	dst, err := b.account(x, to)
	if err != nil {
		return x, x.abortWith(err)
	}
	sv, err := x.Data(src, 0)
	if err != nil {
		return x, x.abortWith(err)
	}
	if sv < amount {
		return x, x.abortWith(errInsufficient)
	}
	if _, err := x.Data(dst, 0); err != nil {
		return x, x.abortWith(err)
	}
	if err := x.AddData(src, 0, -amount); err != nil {
		return x, x.abortWith(err)
	}
	if err := x.AddData(dst, 0, amount); err != nil {
		return x, x.abortWith(err)
	}
	return x, nil
}

func (b bankShape) transfer(h *stableheap.Heap, k *track, from, to int, amount uint64) error {
	x, err := b.transferOpen(h, k, from, to, amount)
	if err != nil {
		return err
	}
	return x.Commit()
}

// pickPair draws a uniform ordered pair of distinct accounts.
func (b bankShape) pickPair(rng *rand.Rand) (from, to int) {
	from = rng.Intn(b.accounts)
	to = rng.Intn(b.accounts - 1)
	if to >= from {
		to++
	}
	return from, to
}

// oo7Shape is one OO7 module under a stable root slot.
type oo7Shape struct {
	slot int
	cfg  workload.OO7Config
}

// payloadWords is the user data of one module in words: the pointer and
// data fields of every object, without object headers.
func (o oo7Shape) payloadWords() int64 {
	c := o.cfg
	comp := c.AtomsPerComp + c.DocWords + c.AtomsPerComp*(c.ConnPerAtom+2)
	return int64(c.Assemblies + 1 + c.Assemblies*(c.Composites+1+c.Composites*comp))
}

// readAssembly walks one random assembly down to the second data word of
// every atomic part, in a read-only transaction. It returns the number of
// atomic parts read.
func (o oo7Shape) readAssembly(h *stableheap.Heap, k *track, rng *rand.Rand) (int, error) {
	x := begin(h, k)
	defer x.Abort()
	module, err := x.Root(o.slot)
	if err != nil {
		return 0, err
	}
	assy, err := x.Ptr(module, rng.Intn(o.cfg.Assemblies))
	if err != nil {
		return 0, err
	}
	n := 0
	for c := 0; c < o.cfg.Composites; c++ {
		comp, err := x.Ptr(assy, c)
		if err != nil {
			return n, err
		}
		for i := 0; i < o.cfg.AtomsPerComp; i++ {
			atom, err := x.Ptr(comp, i)
			if err != nil {
				return n, err
			}
			if _, err := x.Data(atom, 1); err != nil {
				return n, err
			}
			n++
		}
	}
	return n, nil
}

// updateT2 rewrites the second data word of every atomic part of assembly
// a and commits.
func (o oo7Shape) updateT2(h *stableheap.Heap, k *track, a int, rng *rand.Rand) error {
	x := begin(h, k)
	module, err := x.Root(o.slot)
	if err != nil {
		return x.abortWith(err)
	}
	assy, err := x.Ptr(module, a)
	if err != nil {
		return x.abortWith(err)
	}
	for c := 0; c < o.cfg.Composites; c++ {
		comp, err := x.Ptr(assy, c)
		if err != nil {
			return x.abortWith(err)
		}
		for i := 0; i < o.cfg.AtomsPerComp; i++ {
			atom, err := x.Ptr(comp, i)
			if err != nil {
				return x.abortWith(err)
			}
			if err := x.SetData(atom, 1, rng.Uint64()%1000); err != nil {
				return x.abortWith(err)
			}
		}
	}
	return x.Commit()
}

// replaceComposite swaps one composite part for a freshly built one.
func (o oo7Shape) replaceComposite(h *stableheap.Heap, k *track, rng *rand.Rand) error {
	x := begin(h, k)
	module, err := x.Root(o.slot)
	if err != nil {
		return x.abortWith(err)
	}
	a := rng.Intn(o.cfg.Assemblies)
	assy, err := x.Ptr(module, a)
	if err != nil {
		return x.abortWith(err)
	}
	c := rng.Intn(o.cfg.Composites)
	comp, err := o.buildComposite(x, rng, uint64(a*o.cfg.Composites+c))
	if err != nil {
		return x.abortWith(err)
	}
	if err := x.SetPtr(assy, c, comp); err != nil {
		return x.abortWith(err)
	}
	return x.Commit()
}

func (o oo7Shape) buildComposite(x tx, rng *rand.Rand, id uint64) (*stableheap.Ref, error) {
	cfg := o.cfg
	comp, err := x.Alloc(workload.TypeComp, cfg.AtomsPerComp, cfg.DocWords)
	if err != nil {
		return nil, err
	}
	for w := 0; w < cfg.DocWords; w++ {
		if err := x.SetData(comp, w, id<<16|uint64(w)); err != nil {
			return nil, err
		}
	}
	atoms := make([]*stableheap.Ref, cfg.AtomsPerComp)
	for i := range atoms {
		atom, err := x.Alloc(workload.TypeAtom, cfg.ConnPerAtom, 2)
		if err != nil {
			return nil, err
		}
		if err := x.SetData(atom, 0, id*1000+uint64(i)); err != nil {
			return nil, err
		}
		if err := x.SetData(atom, 1, rng.Uint64()%1000); err != nil {
			return nil, err
		}
		atoms[i] = atom
		if err := x.SetPtr(comp, i, atom); err != nil {
			return nil, err
		}
	}
	for _, atom := range atoms {
		for c := 0; c < cfg.ConnPerAtom; c++ {
			if err := x.SetPtr(atom, c, atoms[rng.Intn(len(atoms))]); err != nil {
				return nil, err
			}
		}
	}
	return comp, nil
}
