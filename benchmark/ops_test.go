package main

import (
	"math/rand"
	"testing"

	"stableheap"
	"stableheap/internal/workload"
)

// firstOps is the head of a client's operation sequence.
func firstOps(seed int64, client int, mix [numOps]int, n int) []plannedOp {
	p := newPlanner(seed, client, mix)
	out := make([]plannedOp, n)
	for i := range out {
		out[i] = p.next()
	}
	return out
}

// TestSeedFixesOperationSequence: one seed gives every client the same
// first 1 000 operations on every run, and another seed does not.
func TestSeedFixesOperationSequence(t *testing.T) {
	for _, spec := range loadSpecs {
		for c := 0; c < clients; c++ {
			a, b := firstOps(1, c, spec.mix, 1000), firstOps(1, c, spec.mix, 1000)
			other := firstOps(2, c, spec.mix, 1000)
			same := 0
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s client %d: operation %d differs between two runs of seed 1", spec.name, c, i)
				}
				if a[i] == other[i] {
					same++
				}
			}
			if same > 0 {
				t.Errorf("%s client %d: seeds 1 and 2 share %d of 1000 operations", spec.name, c, same)
			}
		}
		if a, b := firstOps(1, 0, spec.mix, 1000), firstOps(1, 1, spec.mix, 1000); a[0] == b[0] && a[1] == b[1] {
			t.Errorf("%s: clients 0 and 1 run the same sequence", spec.name)
		}
	}
}

func TestPlannerFollowsMix(t *testing.T) {
	mix := [numOps]int{opRead: 10, opUpdate: 30, opReplace: 60}
	var got [numOps]int
	for _, op := range firstOps(7, 0, mix, 20000) {
		got[op.kind]++
	}
	for k, share := range mix {
		if want := share * 200; got[k] < want*9/10 || got[k] > want*11/10 {
			t.Errorf("kind %d: %d of 20000 operations, want about %d", k, got[k], want)
		}
	}
}

func memHeap(t *testing.T) *stableheap.Heap {
	t.Helper()
	cfg := stableheap.DefaultConfig()
	cfg.StableWords = 96 << 10
	cfg.VolatileWords = 64 << 10
	cfg.NumRoots = 8
	h := stableheap.Open(cfg)
	t.Cleanup(h.Close)
	return h
}

// TestOpsMatchWorkloadPackage: the operations in ops.go, driven by the
// same generator, make the same calls as the workload package's: the log
// grows by the same records and bytes, and the data ends up the same.
func TestOpsMatchWorkloadPackage(t *testing.T) {
	bank := bankShape{slot: 1, accounts: 256, fanout: 16}
	module := oo7Shape{slot: 2, cfg: workload.OO7Config{Assemblies: 4, Composites: 4, AtomsPerComp: 20, DocWords: 16, ConnPerAtom: 3}}

	type world struct {
		h    *stableheap.Heap
		bank *workload.Bank
		oo7  *workload.OO7
		rng  *rand.Rand
	}
	build := func() world {
		w := world{h: memHeap(t), rng: rand.New(&splitmix{s: 99})}
		var err error
		if w.bank, err = workload.NewBank(w.h, bank.slot, bank.accounts, bank.fanout, bankInitial); err != nil {
			t.Fatal(err)
		}
		if w.oo7, err = workload.BuildOO7(w.h, module.slot, module.cfg, rand.New(rand.NewSource(5))); err != nil {
			t.Fatal(err)
		}
		if _, err := w.h.CollectVolatile(); err != nil {
			t.Fatal(err)
		}
		return w
	}
	ref, own := build(), build()
	for i := 0; i < 300; i++ {
		var errRef, errOwn error
		switch i % 3 {
		case 0:
			from, to := bank.pickPair(ref.rng)
			errRef = ref.bank.Transfer(from, to, 1)
			from, to = bank.pickPair(own.rng)
			errOwn = bank.transfer(own.h, nil, from, to, 1)
		case 1:
			errRef = ref.oo7.UpdateT2(ref.rng)
			errOwn = module.updateT2(own.h, nil, own.rng.Intn(module.cfg.Assemblies), own.rng)
		default:
			errRef = ref.oo7.ReplaceComposite(ref.rng)
			errOwn = module.replaceComposite(own.h, nil, own.rng)
		}
		if errRef != nil || errOwn != nil {
			t.Fatalf("operation %d: workload package %v, benchmark %v", i, errRef, errOwn)
		}
	}
	mr, mo := ref.h.Metrics(), own.h.Metrics()
	for _, name := range []string{"wal_appends_total", "wal_bytes_appended_total", "tx_committed_total", "tx_updates_total",
		"lock_acquires_total", "track_words_total", "vgc_nursery_alloc_words_total"} {
		if mr.Counter(name) != mo.Counter(name) {
			t.Errorf("%s: workload package %d, benchmark %d", name, mr.Counter(name), mo.Counter(name))
		}
	}
	if err := own.oo7.Check(); err != nil {
		t.Error(err)
	}
	sumRef, err := module.sumAssembly(ref.h, 1)
	if err != nil {
		t.Fatal(err)
	}
	sumOwn, err := module.sumAssembly(own.h, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sumRef != sumOwn {
		t.Errorf("assembly 1 sums to %d after the workload package's operations, %d after the benchmark's", sumRef, sumOwn)
	}
	balRef, _ := bank.allBalances(ref.h)
	balOwn, _ := bank.allBalances(own.h)
	for i := range balRef {
		if balRef[i] != balOwn[i] {
			t.Fatalf("account %d: %d vs %d", i, balRef[i], balOwn[i])
		}
	}
	if n, err := module.readAssembly(own.h, nil, own.rng); err != nil || n != 80 {
		t.Errorf("readAssembly = %d, %v", n, err)
	}
}

func TestPayloadWords(t *testing.T) {
	if got := oo7Module(2, 16, 16).payloadWords(); got != 35105 {
		t.Errorf("16x16x20x16 module: %d payload words, want 35105", got)
	}
	if got := loadSpecs[0].liveBytes(); got != (4096+33*128)*8 {
		t.Errorf("bank-hot live bytes %d", got)
	}
}

// sumAssembly adds up the second data word of every atomic part of
// assembly a, the word updateT2 rewrites.
func (o oo7Shape) sumAssembly(h *stableheap.Heap, a int) (uint64, error) {
	x := begin(h, nil)
	defer x.Abort()
	module, err := x.Root(o.slot)
	if err != nil {
		return 0, err
	}
	assy, err := x.Ptr(module, a)
	if err != nil {
		return 0, err
	}
	var sum uint64
	for c := 0; c < o.cfg.Composites; c++ {
		comp, err := x.Ptr(assy, c)
		if err != nil {
			return 0, err
		}
		for i := 0; i < o.cfg.AtomsPerComp; i++ {
			atom, err := x.Ptr(comp, i)
			if err != nil {
				return 0, err
			}
			v, err := x.Data(atom, 1)
			if err != nil {
				return 0, err
			}
			sum += v
		}
	}
	return sum, nil
}
