package gc

import (
	"fmt"
	"math/rand"
	"testing"

	"stableheap/internal/word"
)

// checkBatch holds one hand-off to word.Moves' contract: sorted, disjoint
// sources, and no target inside a source range — the mark of a batch that
// spans two cycles (cycle k's target is cycle k+1's source).
func checkBatch(t *testing.T, ms word.Moves) {
	t.Helper()
	if len(ms) == 0 {
		t.Fatal("empty batch handed off")
	}
	for i, m := range ms {
		if i > 0 && ms[i-1].From.Add(ms[i-1].Words) > m.From {
			t.Fatalf("batch unsorted or overlapping at %d: %+v then %+v", i, ms[i-1], m)
		}
		for w := 0; w < m.Words; w++ {
			if a := m.To.Add(w); ms.Translate(a) != a {
				t.Fatalf("batch spans cycles: word %d of %+v's target is itself a source", w, m)
			}
		}
	}
}

// shadow follows objects only through the batches, as an undo slot address
// does: no root visit rewrites it.
type shadow map[uint64]word.Addr

func (s shadow) relocate(t *testing.T) func(word.Moves) {
	return func(ms word.Moves) {
		checkBatch(t, ms)
		for id, a := range s {
			s[id] = ms.Translate(a)
		}
	}
}

// TestRelocateBatchNeverSpansCycles runs the volatile collector's entry
// points back to back and requires, wherever one returns, an empty queue and
// every shadowed address current. Two consecutive full collections bring the
// chain back to the addresses it started at, so a hand-off held over the
// second cycle's root enumeration fails here twice: the shadow is stale
// after cycle k, and checkBatch rejects the A→B, B→A' batch after k+1.
func TestRelocateBatchNeverSpansCycles(t *testing.T) {
	e := newVolEnv(t)
	e.roots = []word.Addr{e.chain(e.v.Alloc, 10, 6)}
	sh := shadow{}
	for a, id := e.roots[0], uint64(10); !a.IsNil(); a, id = e.h.Ptr(a, 0), id+1 {
		sh[id] = a
	}
	first := sh[10]
	batches := 0
	e.v.hooks.Relocate = func(ms word.Moves) { batches++; sh.relocate(t)(ms) }
	check := func(what string) {
		t.Helper()
		if len(e.v.relocs) != 0 {
			t.Fatalf("%s returned with %d moves still queued", what, len(e.v.relocs))
		}
		for id, a := range sh {
			d := e.h.Descriptor(a)
			if d.Forwarded() || e.h.Data(a, d, 0) != id {
				t.Fatalf("%s: object %d is not at its shadow address %v (forwarded %v)", what, id, a, d.Forwarded())
			}
		}
	}
	e.v.Collect()
	check("cycle k")
	e.v.Collect()
	check("cycle k+1")
	if batches != 2 || sh[10] != first {
		t.Fatalf("%d batches, head at %v: the test needs two cycles that reuse the address %v", batches, sh[10], first)
	}
	// The mostly-concurrent entries: flip, a mutator transport, a gray
	// evacuation, quanta with a minor collection between two of them, finish.
	e.v.StartConcurrent()
	check("flip")
	tail := e.h.Ptr(e.h.Ptr(e.roots[0], 0), 0)
	e.v.Load(tail)
	check("transport")
	e.v.EvacuateGray(e.h.Ptr(e.v.Load(tail), 0))
	check("gray evacuation")
	e.v.ScanQuantum(3)
	check("quantum")
	sh[70] = e.obj(e.nursery, 70, 0, false)
	e.roots = append(e.roots, sh[70])
	e.v.CollectNursery(nil)
	check("minor under a parked major")
	for e.v.ScanQuantum(3) {
		check("quantum")
	}
	e.v.FinishConcurrent()
	check("finish")
}

// TestRelocateStableEntriesHandOff is the same seam check for the stable
// collector in every mode: two collections back to back (the second reuses
// the first's from-space), a mutator walking the graph through the barrier
// between every two quanta, and after every entry — flip, step, trap,
// transport, quantum — an empty queue and every reachable object at its
// shadow address.
func TestRelocateStableEntriesHandOff(t *testing.T) {
	for mode := Mode(0); mode.Valid(); mode++ {
		t.Run(mode.String(), func(t *testing.T) {
			e := newEnv(t, Config{Mode: mode}, 8192)
			model, roots := buildGraph(t, e, rand.New(rand.NewSource(int64(mode)+1)), 80)
			sh := shadow{}
			for mi, a := range reachable(t, e, model, roots) {
				sh[model[mi].id] = a
			}
			e.c.hooks.Relocate = sh.relocate(t)
			check := func(what string) {
				t.Helper()
				if len(e.c.relocs) != 0 {
					t.Fatalf("%s returned with %d moves still queued", what, len(e.c.relocs))
				}
				for mi, a := range reachable(t, e, model, roots) {
					if sh[model[mi].id] != a {
						t.Fatalf("%s: object %d lives at %v, its shadow says %v", what, model[mi].id, a, sh[model[mi].id])
					}
				}
			}
			for cycle := 0; cycle < 2; cycle++ {
				e.c.StartCollection(word.NilAddr)
				check(fmt.Sprint("flip ", cycle))
				for steps := 0; e.c.Active(); steps++ {
					if steps > 100000 {
						t.Fatal("collection did not terminate")
					}
					if mode != Concurrent {
						e.c.Step()
					} else if !e.c.ScanQuantum(16) {
						e.c.Finish()
					}
					check(fmt.Sprint("quantum of cycle ", cycle))
				}
			}
		})
	}
}

// reachable walks the graph as a mutator would (barriered loads: traps and
// transports happen on the way) and returns model index → current address.
func reachable(t *testing.T, e *env, model []mobj, rootIdx []int) map[int]word.Addr {
	t.Helper()
	seen := map[int]word.Addr{}
	var walk func(mi int, a word.Addr)
	walk = func(mi int, a word.Addr) {
		if _, ok := seen[mi]; ok {
			return
		}
		seen[mi] = a
		if got := e.loadData(a, 0); got != model[mi].id {
			t.Fatalf("identity mismatch at %v: got %d want %d", a, got, model[mi].id)
		}
		for j, tgt := range model[mi].ptrs {
			if tgt != -1 {
				walk(tgt, e.loadPtr(a, j))
			}
		}
	}
	for ri, mi := range rootIdx {
		walk(mi, e.roots[ri])
	}
	return seen
}
