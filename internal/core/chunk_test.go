package core

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"stableheap/internal/histcheck"
	"stableheap/internal/word"
)

// TestChunkPlacementIsBumpPlacement: a lone allocator's objects lie end to
// end across chunk refills and across its transactions, as a per-object bump
// allocator would place them, and the nursery's used size counts exactly
// their words.
func TestChunkPlacementIsBumpPlacement(t *testing.T) {
	hp := openMem(DefaultConfig())
	defer hp.Close()
	if _, err := hp.CollectNursery(); err != nil {
		t.Fatal(err)
	}
	stops := hp.Metrics().Hist("latch_stop_wait_ns").Count
	next, words := word.Addr(0), 0
	for round := 0; round < 3; round++ {
		tr := hp.Begin()
		for i := 0; i < 40; i++ {
			nd := i % 7
			if round == 1 && i == 20 {
				nd = hp.chunkWords // larger than a chunk: carved for itself
			}
			r, err := tr.Alloc(1, 1, nd)
			if err != nil {
				t.Fatal(err)
			}
			if next != 0 && r.Addr() != next {
				t.Fatalf("round %d object %d at %v, want %v", round, i, r.Addr(), next)
			}
			next = r.Addr().Add(2 + nd)
			words += 2 + nd
		}
		commit(t, tr)
	}
	if n := hp.NurseryUsedWords(); n != words {
		t.Fatalf("nursery holds %d words, want the %d allocated", n, words)
	}
	// Each transaction stops the heap to carve its first chunk, to commit
	// (tracking is exclusive only with candidates; these have none) — and a
	// 512-word chunk takes about a hundred of these objects; the one larger
	// than a chunk stops it once more.
	if n := hp.Metrics().Hist("latch_stop_wait_ns").Count - stops; n > 10 {
		t.Fatalf("%d heap stops for 120 allocations in three transactions", n)
	}
}

// TestInterleavedChunks: two transactions allocate in turn, so neither chunk
// can grow in place; a stable collection walks the nursery in between (the
// tails must parse) and a minor promotes both transactions' objects. Every
// object keeps its contents, and each transaction's objects stay out of the
// other's reach until it commits.
func TestInterleavedChunks(t *testing.T) {
	hp := openMem(smallCfg())
	defer hp.Close()
	txs := [2]*Tx{hp.Begin(), hp.Begin()}
	var refs [2][]*Ref
	for i := 0; i < 300; i++ {
		for k, tr := range txs {
			r, err := tr.Alloc(1, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.SetData(r, 0, uint64(k<<16|i)); err != nil {
				t.Fatal(err)
			}
			if n := len(refs[k]); n > 0 {
				if err := tr.SetPtr(r, 0, refs[k][n-1]); err != nil {
					t.Fatal(err)
				}
			}
			refs[k] = append(refs[k], r)
		}
		switch i {
		case 100:
			hp.CollectStable()
		case 200:
			if err := txs[0].SetVolRoot(0, refs[0][len(refs[0])-1]); err != nil {
				t.Fatal(err)
			}
			if _, err := hp.CollectNursery(); err != nil {
				t.Fatal(err)
			}
		}
	}
	probe := hp.Begin()
	v, err := probe.VolRoot(0)
	if err != nil || v == nil {
		t.Fatalf("volatile root 0: %v, %v", v, err)
	}
	if _, err := probe.Data(v, 0); err == nil {
		t.Fatal("a reader saw transaction 0's uncommitted object")
	}
	probe.Abort()
	for k, tr := range txs {
		for i, r := range refs[k] {
			if got, err := tr.Data(r, 0); err != nil || got != uint64(k<<16|i) {
				t.Fatalf("tx %d object %d = %d, %v", k, i, got, err)
			}
			if i > 0 {
				if p, err := tr.Ptr(r, 0); err != nil || p.Addr() != refs[k][i-1].Addr() {
					t.Fatalf("tx %d object %d links to %v, %v", k, i, p, err)
				}
			}
		}
	}
	commit(t, txs[0])
	txs[1].Abort()
}

// TestChunkStoreGraysNothing: a chunk is carved after the last volatile
// flip, so during a concurrent volatile scan its objects are new to the
// scan: overwriting one of their slots grays nothing, and a nursery slot
// never enters the nursery remembered set. Overwriting a from-space value
// in an older object does gray it, so the barrier is live.
func TestChunkStoreGraysNothing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ConcurrentVGC, cfg.ManualScan = true, true
	hp := openMem(cfg)
	defer hp.Close()
	tr := hp.Begin()
	a, _ := tr.Alloc(1, 1, 0)
	b, _ := tr.Alloc(1, 0, 0)
	if err := tr.SetPtr(a, 0, b); err != nil {
		t.Fatal(err)
	}
	if err := tr.SetVolRoot(0, a); err != nil {
		t.Fatal(err)
	}
	commit(t, tr)
	if _, err := hp.CollectVolatile(); err != nil {
		t.Fatal(err)
	}
	if !hp.ConcurrentScanActive() {
		t.Fatal("no concurrent volatile scan in flight")
	}
	satb := func() int64 { return hp.Metrics().Counter("vgc_conc_satb_gray_total") }
	hits := hp.Metrics().Counter("vgc_nursery_barrier_hits_total")

	tr = hp.Begin()
	old, _ := tr.VolRoot(0) // transported; its slot still names b in from-space
	x, _ := tr.Alloc(1, 2, 0)
	y, _ := tr.Alloc(1, 0, 0)
	if !tr.chunk.holds(x.Addr()) || !tr.chunk.holds(y.Addr()) {
		t.Fatal("the new objects are not in the transaction's chunk")
	}
	for _, v := range []*Ref{old, y, nil, old} {
		for i := 0; i < 2; i++ {
			if err := tr.SetPtr(x, i, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := satb(); n != 0 {
		t.Fatalf("stores into a chunk object grayed %d values, want 0", n)
	}
	if n := hp.Metrics().Counter("vgc_nursery_barrier_hits_total") - hits; n != 0 {
		t.Fatalf("stores into a chunk object hit the nursery barrier %d times", n)
	}
	if err := tr.SetPtr(old, 0, x); err != nil {
		t.Fatal(err)
	}
	if n := satb(); n != 1 {
		t.Fatalf("overwriting b in an older object grayed %d values, want 1", n)
	}
	commit(t, tr)
	hp.FinishVolatileScan()
	check := hp.Begin()
	r, _ := check.VolRoot(0)
	if p, err := check.Ptr(r, 0); err != nil || p == nil {
		t.Fatalf("root object's slot after the scan: %v, %v", p, err)
	} else if q, err := check.Ptr(p, 1); err != nil || q == nil || q.Addr() != r.Addr() {
		t.Fatalf("x.ptr1 after the scan: %v, %v; want the root object", q, err)
	}
	commit(t, check)
}

// TestConcurrentChunks: workers build lists side by side, so their chunks
// interleave, refill and die at minors, and publish each list through an
// unlocked volatile root before deciding its fate. A reader of a
// neighbour's list conflicts while its creator runs, sees the zeroed
// objects of an aborted list, or the whole list of a committed one — never
// part of one — and the recorded history is serializable.
func TestConcurrentChunks(t *testing.T) {
	hp := openMem(smallCfg())
	defer hp.Close()
	rec := histcheck.NewRecorder()
	hp.SetHistoryRecorder(rec)
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for round := 0; round < 25; round++ {
				tr := hp.Begin()
				n := 20 + rng.Intn(150)
				var head *Ref
				for i := 0; i < n; i++ {
					node, err := tr.Alloc(1, 1, 2)
					if err == nil {
						err = tr.SetData(node, 0, uint64(w<<32|round<<16|i))
					}
					if err == nil {
						err = tr.SetData(node, 1, uint64(n))
					}
					if err == nil {
						err = tr.SetPtr(node, 0, head)
					}
					if err != nil {
						t.Errorf("worker %d: build: %v", w, err)
						tr.Abort()
						return
					}
					head = node
				}
				if err := tr.SetVolRoot(w, head); err != nil {
					t.Errorf("worker %d: publish: %v", w, err)
				}
				peek(t, hp, (w+1)%workers)
				var err error
				switch rng.Intn(3) {
				case 0:
					err = tr.Abort()
				case 1:
					err = tr.Commit()
				default:
					if err = tr.SetRoot(w, head); err == nil {
						err = tr.Commit()
					} else {
						tr.Abort()
					}
				}
				if err != nil && !errors.Is(err, ErrConflict) {
					t.Errorf("worker %d: end: %v", w, err)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := histcheck.Check(rec.History()); err != nil {
		t.Fatal(err)
	}
}

// peek reads the list published under volatile root o in a transaction of
// its own, failing the test on a partial list.
func peek(t *testing.T, hp *Heap, o int) {
	tr := hp.Begin()
	defer tr.Abort()
	node, err := tr.VolRoot(o)
	if err != nil || node == nil {
		return
	}
	var want, got uint64
	for ; node != nil; got++ {
		v, err := tr.Data(node, 0)
		if err != nil {
			return // its creator still runs
		}
		n, err := tr.Data(node, 1)
		if err != nil {
			return
		}
		if n == 0 && got == 0 {
			return // aborted: unbear left the zero fields
		}
		if got == 0 {
			want = n
		}
		if n != want || v&0xffff != want-1-got {
			t.Errorf("list under root %d: node %d reads (%#x, %d) in a list of %d", o, got, v, n, want)
			return
		}
		if node, err = tr.Ptr(node, 0); err != nil {
			return
		}
	}
	if got != want {
		t.Errorf("list under root %d: %d nodes, want %d", o, got, want)
	}
}
