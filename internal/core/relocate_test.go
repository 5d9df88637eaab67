package core

import (
	"testing"

	"stableheap/internal/gc"
)

// TestRelocateProbesScaleWithMoves is the scaling guard for the collectors'
// bookkeeping: one transaction builds n and then 4n objects (two undo
// entries each) on the default configuration, and the undo entries searched
// while relocating must grow with what the minor collections moved, not
// with moves × the transaction's undo list. With the per-object copy hook
// the work grew 16× for 4× the objects; a batch searches an entry only
// while its object still lies in the cycle's from-set, so the count is
// exactly two per node moved and grows 5× here (the second minor comes
// after the nursery cap has quadrupled).
func TestRelocateProbesScaleWithMoves(t *testing.T) {
	build := func(n int) (probes, nodeMoves int64) {
		hp := openMem(DefaultConfig())
		defer hp.Close()
		buildListReread(t, hp, 0, n)
		c := hp.Metrics().Counters
		if c["gc_relocate_batches_total"] != c["vgc_nursery_minor_total"] {
			t.Fatalf("n=%d: %d batches for %d minor collections", n, c["gc_relocate_batches_total"], c["vgc_nursery_minor_total"])
		}
		// The holder moves once, at the first minor, with no entry.
		return c["tx_utt_probes_total"], c["gc_relocate_moves_total"] - 1
	}
	const n = 1024
	p1, m1 := build(n)
	p4, m4 := build(4 * n)
	t.Logf("n=%d: %d probes, %d node moves; n=%d: %d probes, %d node moves", n, p1, m1, 4*n, p4, m4)
	if m1 <= 0 || m4 <= m1 {
		t.Fatalf("moves %d → %d: the test needs a minor collection inside each transaction", m1, m4)
	}
	if p1 != 2*m1 || p4 != 2*m4 {
		t.Fatalf("probes %d and %d for %d and %d node moves, want two per move", p1, p4, m1, m4)
	}
	if p4 >= 6*p1 {
		t.Fatalf("4× the objects cost %d probes against %d: grew %.1f×, want < 6×", p4, p1, float64(p4)/float64(p1))
	}
}

// buildListReread is buildList (values 0..n-1) in one transaction, writing
// each node through a ref read back with Ptr instead of the born ref Alloc
// returned: born writes keep no undo, and this guard counts undo entries.
// The re-read goes through a holder born in the same transaction, so the
// holder's own writes add no entry either; each node gets a data and a
// pointer entry (old value nil), both before the next Alloc can collect.
func buildListReread(t *testing.T, hp *Heap, slot, n int) {
	t.Helper()
	tr := hp.Begin()
	holder, err := tr.Alloc(2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	var head *Ref
	for i := n - 1; i >= 0; i-- {
		node, err := tr.Alloc(1, 1, 1)
		if err != nil {
			t.Fatalf("alloc: %v", err)
		}
		if err := tr.SetPtr(holder, 0, node); err != nil {
			t.Fatal(err)
		}
		if node, err = tr.Ptr(holder, 0); err != nil {
			t.Fatal(err)
		}
		if err := tr.SetData(node, 0, uint64(i)); err != nil {
			t.Fatal(err)
		}
		if err := tr.SetPtr(node, 0, head); err != nil {
			t.Fatal(err)
		}
		head = node
	}
	if err := tr.SetRoot(slot, head); err != nil {
		t.Fatal(err)
	}
	commit(t, tr)
}

// TestAbortAtCollectorSeams aborts a transaction at every place a stable
// collector hands control back to mutators with a collection still in
// flight — between two quanta, and straight after a read-barrier trap or
// transport — in every gc.Mode, and reads the restored values back at the
// objects' current addresses. The transaction has logged data updates (undo
// slot addresses) and cut the list (an undo pointer value is then the only
// reference to the tail).
func TestAbortAtCollectorSeams(t *testing.T) {
	for mode := gc.Mode(0); mode.Valid(); mode++ {
		for _, seam := range []string{"between quanta", "after a barrier load"} {
			t.Run(mode.String()+"/"+seam, func(t *testing.T) {
				c := smallCfg()
				c.StableGC = mode
				c.ManualScan = true
				hp := openMem(c)
				defer hp.Close()
				quantum := hp.StepStable
				if mode == gc.Concurrent {
					quantum = hp.StepStableScan
				}
				buildList(t, hp, 0, 12, 100)
				if _, err := hp.CollectVolatile(); err != nil {
					t.Fatal(err)
				}
				hp.CollectStable()

				tr := hp.Begin()
				node, err := tr.Root(0)
				if err != nil {
					t.Fatal(err)
				}
				var nodes []*Ref
				for i := 0; i < 6; i++ {
					nodes = append(nodes, node)
					if err := tr.SetData(node, 0, 9000+uint64(i)); err != nil {
						t.Fatal(err)
					}
					if node, err = tr.Ptr(node, 0); err != nil {
						t.Fatal(err)
					}
				}
				if err := tr.SetPtr(nodes[5], 0, nil); err != nil {
					t.Fatal(err)
				}
				hp.StartStableCollection()
				quantum()
				if seam == "after a barrier load" {
					for _, n := range nodes {
						if _, err := tr.Ptr(n, 0); err != nil {
							t.Fatal(err)
						}
					}
				}
				if err := tr.Abort(); err != nil {
					t.Fatal(err)
				}
				checkList(t, hp, 0, 12, 100)
				for quantum() {
				}
				hp.CollectStable() // retires whatever is left, in any mode
				checkList(t, hp, 0, 12, 100)
			})
		}
	}
}

// TestAbortAfterNurseryMinor moves a transaction's undo targets with a minor
// collection inside it: a logged update of a newly stable object still in
// the nursery (its undo slot address must follow the move into the stable
// area) and an unlogged update of a plain nursery object (its in-memory undo
// entry must follow the promotion). A checkpoint taken right after the minor
// must carry the translated address, which is what a crash there recovers
// through; the survivor aborts and both old values must be back.
func TestAbortAfterNurseryMinor(t *testing.T) {
	run := func(t *testing.T, crash bool) {
		hp := openMem(nurseryCfg())
		tr := hp.Begin()
		s, err := tr.Alloc(1, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		v, err := tr.Alloc(2, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		tr.SetData(s, 0, 5)
		tr.SetData(v, 0, 7)
		tr.SetRoot(1, s)
		tr.SetVolRoot(0, v)
		commit(t, tr) // s is newly stable, v plain volatile; both in the nursery

		tr = hp.Begin()
		if s, err = tr.Root(1); err != nil {
			t.Fatal(err)
		}
		if v, err = tr.VolRoot(0); err != nil {
			t.Fatal(err)
		}
		logged := s.Addr()
		if !hp.inNursery(logged) || !hp.inNursery(v.Addr()) {
			t.Fatalf("precondition: %v and %v must be nursery addresses", logged, v.Addr())
		}
		if err := tr.SetData(s, 0, 55); err != nil {
			t.Fatal(err)
		}
		if err := tr.SetData(v, 0, 70); err != nil {
			t.Fatal(err)
		}
		if _, err := hp.CollectNursery(); err != nil {
			t.Fatal(err)
		}
		if !hp.inStableArea(s.Addr()) || hp.inNursery(v.Addr()) {
			t.Fatalf("after the minor: s at %v, v at %v", s.Addr(), v.Addr())
		}
		hp.Checkpoint()
		var pairs int
		for _, e := range hp.txm.TableEntries() {
			for _, p := range e.UTT {
				pairs++
				if off := p.Orig - logged; !hp.inNursery(p.Orig) || p.Cur != s.Addr()+off {
					t.Fatalf("checkpointed translation %+v, want %v+%d → %v+%d", p, logged, off, s.Addr(), off)
				}
			}
		}
		if pairs != 1 {
			t.Fatalf("%d translations in the checkpointed table, want the one logged update", pairs)
		}
		if crash {
			hp.Mem().FlushAll() // the uncommitted 55 reaches disk at the stable address
			disk, logDev := hp.Crash()
			if hp, err = reopen(nurseryCfg(), disk, logDev); err != nil {
				t.Fatal(err)
			}
		} else if err := tr.Abort(); err != nil {
			t.Fatal(err)
		}
		defer hp.Close()
		tr = hp.Begin()
		defer tr.Abort()
		if s, err = tr.Root(1); err != nil {
			t.Fatal(err)
		}
		if got, err := tr.Data(s, 0); err != nil || got != 5 {
			t.Fatalf("stable object after the rollback: %d (%v), want 5", got, err)
		}
		if crash {
			return // volatile state does not survive a crash
		}
		if v, err = tr.VolRoot(0); err != nil {
			t.Fatal(err)
		}
		if got, err := tr.Data(v, 0); err != nil || got != 7 {
			t.Fatalf("volatile object after the abort: %d (%v), want 7", got, err)
		}
	}
	t.Run("abort", func(t *testing.T) { run(t, false) })
	t.Run("crash at the checkpoint", func(t *testing.T) { run(t, true) })
}
