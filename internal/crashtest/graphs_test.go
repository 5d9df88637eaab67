package crashtest

import (
	"math/rand"
	"testing"

	"stableheap/internal/core"
	"stableheap/internal/storage"
	"stableheap/internal/word"
)

// gmNode mirrors one committed DAG node: identity in data word 0, pointer
// targets by model index (-1 nil).
type gmNode struct {
	id    uint64
	ptrs  []int
	ndata int
}

// graphModel mirrors a committed random DAG with multiple roots into it.
type graphModel struct {
	nodes []gmNode
	roots []int // roots[slot] = node index, -1 none
}

// buildRandomDAG commits a random DAG in one transaction with several
// stable roots pointing into it (so subgraphs are shared across roots).
func buildRandomDAG(t *testing.T, hp *core.Heap, rng *rand.Rand, n, slots int) *graphModel {
	t.Helper()
	m := &graphModel{roots: make([]int, slots)}
	tr := hp.Begin()
	refs := make([]*core.Ref, 0, n)
	for i := 0; i < n; i++ {
		nptrs := rng.Intn(3)
		ndata := 1 + rng.Intn(2)
		node := gmNode{id: uint64(i + 1), ptrs: make([]int, nptrs), ndata: ndata}
		ref, err := tr.Alloc(1, nptrs, ndata)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.SetData(ref, 0, node.id); err != nil {
			t.Fatal(err)
		}
		for p := 0; p < nptrs; p++ {
			if i == 0 || rng.Intn(4) == 0 {
				node.ptrs[p] = -1
				continue
			}
			tgt := rng.Intn(i) // DAG: only earlier nodes
			node.ptrs[p] = tgt
			if err := tr.SetPtr(ref, p, refs[tgt]); err != nil {
				t.Fatal(err)
			}
		}
		refs = append(refs, ref)
		m.nodes = append(m.nodes, node)
	}
	for slot := 0; slot < slots; slot++ {
		idx := rng.Intn(n)
		m.roots[slot] = idx
		if err := tr.SetRoot(slot, refs[idx]); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Commit(); err != nil {
		t.Fatal(err)
	}
	return m
}

// verifyDAG walks every root, checking each reachable object's identity,
// shape, children and sharing against the model.
func verifyDAG(t *testing.T, hp *core.Heap, m *graphModel) {
	t.Helper()
	tr := hp.Begin()
	defer tr.Abort()
	seen := map[uint64]word.Addr{}
	var walk func(ref *core.Ref) // ref's object must be model node id-1
	walk = func(ref *core.Ref) {
		id, err := tr.Data(ref, 0)
		if err != nil {
			t.Fatal(err)
		}
		if id == 0 || id > uint64(len(m.nodes)) {
			t.Fatalf("bogus identity %d", id)
		}
		model := m.nodes[id-1]
		if prev, dup := seen[id]; dup {
			if prev != ref.Addr() {
				t.Fatalf("sharing broken for id %d: %v vs %v", id, prev, ref.Addr())
			}
			return
		}
		seen[id] = ref.Addr()
		_, np, nd, err := tr.Shape(ref)
		if err != nil || np != len(model.ptrs) || nd != model.ndata {
			t.Fatalf("id %d shape %d/%d want %d/%d (%v)", id, np, nd, len(model.ptrs), model.ndata, err)
		}
		for p, want := range model.ptrs {
			child, err := tr.Ptr(ref, p)
			if err != nil {
				t.Fatal(err)
			}
			if want == -1 {
				if child != nil {
					t.Fatalf("id %d ptr %d should be nil", id, p)
				}
				continue
			}
			if child == nil {
				t.Fatalf("id %d ptr %d lost", id, p)
			}
			cid, err := tr.Data(child, 0)
			if err != nil {
				t.Fatal(err)
			}
			if cid != uint64(want+1) {
				t.Fatalf("id %d ptr %d points at %d, want %d", id, p, cid, want+1)
			}
			walk(child)
		}
	}
	for slot, idx := range m.roots {
		root, err := tr.Root(slot)
		if err != nil {
			t.Fatal(err)
		}
		if root == nil {
			t.Fatalf("root %d lost", slot)
		}
		id, _ := tr.Data(root, 0)
		if id != uint64(idx+1) {
			t.Fatalf("root %d points at id %d, want %d", slot, id, idx+1)
		}
		walk(root)
	}
}

// TestRandomDAGSurvivesEverything pushes random shared DAGs through the
// full gauntlet: tracking, evacuation, stable collection, crash recovery,
// another collection, and total media recovery — verifying identity,
// shape, edges and sharing at every stage.
func TestRandomDAGSurvivesEverything(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		hp := openMem(cfg())
		m := buildRandomDAG(t, hp, rng, 64, 6)
		verifyDAG(t, hp, m)
		if _, err := hp.CollectVolatile(); err != nil {
			t.Fatal(err)
		}
		verifyDAG(t, hp, m)
		hp.CollectStable()
		verifyDAG(t, hp, m)
		disk, logDev := hp.Crash()
		hp2, err := reopen(cfg(), disk, logDev)
		if err != nil {
			t.Fatal(err)
		}
		verifyDAG(t, hp2, m)
		hp2.CollectStable()
		verifyDAG(t, hp2, m)
		_, logOnly := storage.Backings(hp2.Crash())
		hp3, err := core.Open(cfg(), storage.NewMemBacking(), logOnly)
		if err != nil {
			t.Fatalf("seed %d media: %v", seed, err)
		}
		verifyDAG(t, hp3, m)
	}
}

// TestRandomDAGWithMutationsAndIncrementalGC mutates pointer edges of a
// committed DAG (re-wiring within the DAG) while an incremental collection
// runs, tracking the model alongside, crash-recovering at the end.
func TestRandomDAGWithMutationsAndIncrementalGC(t *testing.T) {
	for seed := int64(10); seed <= 13; seed++ {
		rng := rand.New(rand.NewSource(seed))
		hp := openMem(cfg())
		m := buildRandomDAG(t, hp, rng, 48, 4)
		if _, err := hp.CollectVolatile(); err != nil {
			t.Fatal(err)
		}
		hp.StartStableCollection()
		for round := 0; round < 12; round++ {
			// Pick a root, walk a short random path, rewire one edge to
			// another reachable node (keeps everything reachable from
			// roots, so the model stays closed).
			slot := rng.Intn(len(m.roots))
			tr := hp.Begin()
			ref, err := tr.Root(slot)
			if err != nil {
				t.Fatal(err)
			}
			idx := m.roots[slot]
			for hop := 0; hop < 2; hop++ {
				node := m.nodes[idx]
				if len(node.ptrs) == 0 {
					break
				}
				p := rng.Intn(len(node.ptrs))
				if node.ptrs[p] == -1 {
					break
				}
				next, err := tr.Ptr(ref, p)
				if err != nil {
					t.Fatal(err)
				}
				ref, idx = next, node.ptrs[p]
			}
			node := m.nodes[idx]
			if len(node.ptrs) > 0 {
				p := rng.Intn(len(node.ptrs))
				// New target: the head of some root (always reachable).
				tgtSlot := rng.Intn(len(m.roots))
				tgtRef, err := tr.Root(tgtSlot)
				if err != nil {
					t.Fatal(err)
				}
				if err := tr.SetPtr(ref, p, tgtRef); err != nil {
					t.Fatal(err)
				}
				if rng.Intn(4) == 0 {
					if err := tr.Abort(); err != nil {
						t.Fatal(err)
					}
				} else {
					if err := tr.Commit(); err != nil {
						t.Fatal(err)
					}
					m.nodes[idx].ptrs[p] = m.roots[tgtSlot]
				}
			} else {
				tr.Abort()
			}
			hp.StepStable()
		}
		for hp.StepStable() {
		}
		verifyDAG(t, hp, m)
		disk, logDev := hp.Crash()
		hp2, err := reopen(cfg(), disk, logDev)
		if err != nil {
			t.Fatal(err)
		}
		verifyDAG(t, hp2, m)
	}
}
