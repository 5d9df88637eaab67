package workload

import (
	"math/rand"
	"testing"

	"stableheap"
)

func testHeap() *stableheap.Heap {
	return stableheap.Open(stableheap.Config{
		PageSize:      512,
		StableWords:   32 * 1024,
		VolatileWords: 8 * 1024,
	})
}

func TestBankConservation(t *testing.T) {
	h := testHeap()
	const accounts, initial = 32, 1000
	b, err := NewBank(h, 0, accounts, 8, initial)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	committed, err := b.RunMix(rng, 200, 50)
	if err != nil {
		t.Fatal(err)
	}
	if committed == 0 {
		t.Fatal("no transfers committed")
	}
	total, err := b.Total()
	if err != nil {
		t.Fatal(err)
	}
	if total != accounts*initial {
		t.Fatalf("total = %d, want %d", total, accounts*initial)
	}
}

func TestBankConservationAcrossCrash(t *testing.T) {
	h := testHeap()
	const accounts, initial = 16, 500
	b, err := NewBank(h, 0, accounts, 8, initial)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	if _, err := b.RunMix(rng, 100, 40); err != nil {
		t.Fatal(err)
	}
	disk, log := h.Crash()
	h2, err := stableheap.Recover(h.Config(), disk, log)
	if err != nil {
		t.Fatal(err)
	}
	b.Reattach(h2)
	total, err := b.Total()
	if err != nil {
		t.Fatal(err)
	}
	if total != accounts*initial {
		t.Fatalf("total after crash = %d, want %d", total, accounts*initial)
	}
}

func TestBankRejectsTooManyAccounts(t *testing.T) {
	h := testHeap()
	if _, err := NewBank(h, 0, 100, 8, 1); err == nil {
		t.Fatal("expected fanout error")
	}
}

func TestOO7BuildTraverseUpdate(t *testing.T) {
	h := testHeap()
	rng := rand.New(rand.NewSource(3))
	cfg := DefaultOO7()
	o, err := BuildOO7(h, 1, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Check(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := o.UpdateT2(rng); err != nil {
			t.Fatal(err)
		}
		if err := o.ReplaceComposite(rng); err != nil {
			t.Fatal(err)
		}
	}
	if err := o.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestOO7SurvivesCrashAndGC(t *testing.T) {
	h := testHeap()
	rng := rand.New(rand.NewSource(4))
	o, err := BuildOO7(h, 0, DefaultOO7(), rng)
	if err != nil {
		t.Fatal(err)
	}
	h.CollectVolatile()
	h.CollectStable()
	if err := o.Check(); err != nil {
		t.Fatal(err)
	}
	disk, log := h.Crash()
	h2, err := stableheap.Recover(h.Config(), disk, log)
	if err != nil {
		t.Fatal(err)
	}
	o.Reattach(h2)
	if err := o.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestCADTreeSessions(t *testing.T) {
	h := testHeap()
	rng := rand.New(rand.NewSource(5))
	cfg := DefaultCAD()
	ct, err := BuildCAD(h, 2, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	commits, aborts := 0, 0
	for i := 0; i < 40; i++ {
		ok, err := ct.EditSession(rng, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			commits++
		} else {
			aborts++
		}
	}
	if commits == 0 || aborts == 0 {
		t.Fatalf("commits=%d aborts=%d: mix too tame", commits, aborts)
	}
	for i := 0; i < 10; i++ {
		if err := ct.ReplaceSubtree(rng); err != nil {
			t.Fatal(err)
		}
	}
	n, err := ct.CountLeaves()
	if err != nil {
		t.Fatal(err)
	}
	if n != cfg.Leaves() {
		t.Fatalf("leaves = %d, want %d", n, cfg.Leaves())
	}
}

func TestCADTreeAcrossCollections(t *testing.T) {
	h := testHeap()
	rng := rand.New(rand.NewSource(6))
	ct, err := BuildCAD(h, 0, DefaultCAD(), rng)
	if err != nil {
		t.Fatal(err)
	}
	h.CollectVolatile()
	h.StartStableCollection()
	for i := 0; i < 20; i++ {
		if _, err := ct.EditSession(rng, 0.2); err != nil {
			t.Fatal(err)
		}
		h.StepStable()
	}
	for h.StepStable() {
	}
	if n, err := ct.CountLeaves(); err != nil || n != DefaultCAD().Leaves() {
		t.Fatalf("leaves=%d err=%v", n, err)
	}
}
