package gc

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"stableheap/internal/heap"
	"stableheap/internal/storage"
	"stableheap/internal/vm"
	"stableheap/internal/wal"
	"stableheap/internal/word"
)

const ps = 256

// env is a miniature mutator environment around one collector.
type env struct {
	mem   *vm.Store
	h     *heap.Heap
	log   *wal.Manager
	c     *Collector
	roots []word.Addr
}

func newEnv(t *testing.T, cfg Config, areaWords int) *env {
	t.Helper()
	disk := storage.NewDisk(ps)
	log := wal.NewManager(storage.NewLog(0))
	mem := vm.New(vm.Config{PageSize: ps}, disk, log)
	h := heap.New(mem)
	lo := word.Addr(ps) // keep page 0 unused so NilAddr stays invalid
	hi := lo + word.Addr(word.WordsToBytes(areaWords))
	e := &env{mem: mem, h: h, log: log}
	e.c = New(cfg, mem, h, log, lo, hi)
	e.c.SetHooks(Hooks{ForEachRoot: e.forEachRoot})
	mem.SetTrapHandler(e.c.Trap)
	return e
}

func (e *env) forEachRoot(visit func(get func() word.Addr, set func(word.Addr))) {
	for i := range e.roots {
		i := i
		visit(func() word.Addr { return e.roots[i] },
			func(a word.Addr) { e.roots[i] = a })
	}
}

// alloc creates an object with the given pointer count and data words,
// writing a unique identity into data word 0.
func (e *env) alloc(t *testing.T, id uint64, nptrs, ndata int) word.Addr {
	t.Helper()
	d := heap.NewDescriptor(1, nptrs, ndata)
	a, ok := e.c.Alloc(d.SizeWords())
	if !ok {
		t.Fatal("allocation failed (area too small for test)")
	}
	e.h.SetDescriptor(a, d, word.NilLSN)
	for i := 0; i < nptrs; i++ {
		e.h.SetPtr(a, i, word.NilAddr, word.NilLSN)
	}
	e.h.SetData(a, d, 0, id, word.NilLSN)
	return a
}

// read-barriered accessors: what the mutator would use.
func (e *env) loadPtr(a word.Addr, i int) word.Addr {
	slot := a + word.Addr(heap.PtrOffset(i))
	e.mem.EnsureAccessible(slot, word.WordSize)
	return e.c.Load(word.Addr(e.mem.ReadWord(slot)))
}

func (e *env) loadDescriptor(a word.Addr) heap.Descriptor {
	e.mem.EnsureAccessible(a, word.WordSize)
	return e.h.Descriptor(a)
}

func (e *env) loadData(a word.Addr, i int) uint64 {
	d := e.loadDescriptor(a)
	slot := a + word.Addr(heap.DataOffset(d.NPtrs(), i))
	e.mem.EnsureAccessible(slot, word.WordSize)
	return e.mem.ReadWord(slot)
}

// model graph for verification.
type mobj struct {
	id    uint64
	ptrs  []int // indices into the model, -1 for nil
	ndata int
}

// buildGraph creates a random object graph and returns the model plus the
// indices chosen as roots.
func buildGraph(t *testing.T, e *env, rng *rand.Rand, n int) ([]mobj, []int) {
	model := make([]mobj, n)
	addrs := make([]word.Addr, n)
	for i := 0; i < n; i++ {
		nptrs := rng.Intn(4)
		ndata := 1 + rng.Intn(3)
		model[i] = mobj{id: uint64(i + 1), ptrs: make([]int, nptrs), ndata: ndata}
		addrs[i] = e.alloc(t, model[i].id, nptrs, ndata)
		for j := range model[i].ptrs {
			if i == 0 || rng.Intn(5) == 0 {
				model[i].ptrs[j] = -1
			} else {
				tgt := rng.Intn(i + 1) // may self-reference → cycles via later rewiring
				model[i].ptrs[j] = tgt
				e.h.SetPtr(addrs[i], j, addrs[tgt], word.NilLSN)
			}
		}
	}
	// Add a few back-edges to form cycles.
	for k := 0; k < n/5; k++ {
		i := rng.Intn(n)
		if len(model[i].ptrs) == 0 {
			continue
		}
		j := rng.Intn(len(model[i].ptrs))
		tgt := rng.Intn(n)
		model[i].ptrs[j] = tgt
		e.h.SetPtr(addrs[i], j, addrs[tgt], word.NilLSN)
	}
	var roots []int
	e.roots = nil
	for i := 0; i < n; i += 1 + rng.Intn(4) {
		roots = append(roots, i)
		e.roots = append(e.roots, addrs[i])
	}
	return model, roots
}

// verifyGraph checks that the physical graph reachable from e.roots is
// isomorphic to the model reachable from rootIdx: same ids, data, structure
// and sharing.
func verifyGraph(t *testing.T, e *env, model []mobj, rootIdx []int) {
	t.Helper()
	seen := map[int]word.Addr{} // model index → physical address
	var walk func(mi int, a word.Addr)
	walk = func(mi int, a word.Addr) {
		if prev, ok := seen[mi]; ok {
			if prev != a {
				t.Fatalf("sharing broken: model %d at both %v and %v", mi, prev, a)
			}
			return
		}
		seen[mi] = a
		m := model[mi]
		d := e.loadDescriptor(a)
		if d.Forwarded() {
			t.Fatalf("mutator saw forwarding pointer at %v", a)
		}
		if e.c.Active() && e.c.from.Contains(a) {
			t.Fatalf("mutator saw from-space object at %v", a)
		}
		if d.NPtrs() != len(m.ptrs) || d.NData() != m.ndata {
			t.Fatalf("shape mismatch at %v: %d/%d vs %d/%d", a, d.NPtrs(), d.NData(), len(m.ptrs), m.ndata)
		}
		if got := e.loadData(a, 0); got != m.id {
			t.Fatalf("identity mismatch at %v: got %d want %d", a, got, m.id)
		}
		for j, tgt := range m.ptrs {
			p := e.loadPtr(a, j)
			if tgt == -1 {
				if !p.IsNil() {
					t.Fatalf("model %d ptr %d should be nil, got %v", mi, j, p)
				}
				continue
			}
			if p.IsNil() {
				t.Fatalf("model %d ptr %d should be non-nil", mi, j)
			}
			walk(tgt, p)
		}
	}
	for ri, mi := range rootIdx {
		walk(mi, e.roots[ri])
	}
}

func TestStopTheWorldPreservesGraph(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		e := newEnv(t, Config{Mode: StopTheWorld}, 4096)
		rng := rand.New(rand.NewSource(seed))
		model, roots := buildGraph(t, e, rng, 60)
		e.c.StartCollection(word.NilAddr)
		if e.c.Active() {
			t.Fatal("stop-the-world collection must finish inside the flip")
		}
		verifyGraph(t, e, model, roots)
	}
}

func TestCollectionDropsGarbage(t *testing.T) {
	e := newEnv(t, Config{Mode: StopTheWorld}, 4096)
	live := e.alloc(t, 1, 0, 1)
	for i := 0; i < 20; i++ {
		e.alloc(t, uint64(100+i), 0, 8) // garbage
	}
	e.roots = []word.Addr{live}
	before := e.c.Current().CopyPtr - e.c.Current().Lo
	e.c.StartCollection(word.NilAddr)
	after := e.c.Current().CopyPtr - e.c.Current().Lo
	if after >= before {
		t.Fatalf("garbage not reclaimed: before=%d after=%d", before, after)
	}
	if got := e.loadData(e.roots[0], 0); got != 1 {
		t.Fatal("live object lost")
	}
}

func TestSharingPreserved(t *testing.T) {
	e := newEnv(t, Config{Mode: StopTheWorld}, 4096)
	shared := e.alloc(t, 7, 0, 1)
	a := e.alloc(t, 1, 1, 1)
	b := e.alloc(t, 2, 1, 1)
	e.h.SetPtr(a, 0, shared, word.NilLSN)
	e.h.SetPtr(b, 0, shared, word.NilLSN)
	e.roots = []word.Addr{a, b}
	e.c.StartCollection(word.NilAddr)
	pa := e.loadPtr(e.roots[0], 0)
	pb := e.loadPtr(e.roots[1], 0)
	if pa != pb {
		t.Fatalf("sharing broken: %v vs %v", pa, pb)
	}
}

func TestCyclePreserved(t *testing.T) {
	e := newEnv(t, Config{Mode: StopTheWorld}, 4096)
	a := e.alloc(t, 1, 1, 1)
	b := e.alloc(t, 2, 1, 1)
	e.h.SetPtr(a, 0, b, word.NilLSN)
	e.h.SetPtr(b, 0, a, word.NilLSN)
	e.roots = []word.Addr{a}
	e.c.StartCollection(word.NilAddr)
	na := e.roots[0]
	nb := e.loadPtr(na, 0)
	if got := e.loadPtr(nb, 0); got != na {
		t.Fatal("cycle broken")
	}
}

func TestEllisIncrementalWithMutatorTraps(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		e := newEnv(t, Config{}, 8192)
		rng := rand.New(rand.NewSource(seed))
		model, roots := buildGraph(t, e, rng, 80)
		e.c.StartCollection(word.NilAddr)
		if !e.c.Active() {
			t.Fatal("incremental collection must stay active after the flip")
		}
		// Interleave: the mutator chases pointers (taking traps) while
		// the collector steps. verifyGraph itself checks the barrier
		// invariant (never sees from-space).
		steps := 0
		for e.c.Active() && steps < 10000 {
			verifyGraph(t, e, model, roots)
			e.c.Step()
			steps++
		}
		if e.c.Active() {
			t.Fatal("collection did not terminate")
		}
		verifyGraph(t, e, model, roots)
		if e.mem.Met.Traps.Load() == 0 {
			t.Fatal("expected read-barrier traps")
		}
	}
}

func TestBakerIncremental(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		e := newEnv(t, Config{Mode: Baker}, 8192)
		rng := rand.New(rand.NewSource(seed))
		model, roots := buildGraph(t, e, rng, 80)
		e.c.StartCollection(word.NilAddr)
		steps := 0
		for e.c.Active() && steps < 100000 {
			verifyGraph(t, e, model, roots)
			e.c.Step()
			steps++
		}
		if e.c.Active() {
			t.Fatal("Baker collection did not terminate")
		}
		verifyGraph(t, e, model, roots)
	}
}

func TestMutatorAllocationDuringCollectionNotScanned(t *testing.T) {
	e := newEnv(t, Config{}, 8192)
	a := e.alloc(t, 1, 1, 1)
	e.roots = []word.Addr{a}
	e.c.StartCollection(word.NilAddr)
	// Allocate during the collection: must land in the high region.
	n, ok := e.c.Alloc(4)
	if !ok {
		t.Fatal("alloc during collection failed")
	}
	to := e.c.to
	if n < to.AllocPtr || n >= to.Hi {
		t.Fatalf("new object at %v not in the mutator region [%v,%v)", n, to.AllocPtr, to.Hi)
	}
	e.h.SetDescriptor(n, heap.NewDescriptor(1, 1, 1), word.NilLSN)
	// Point the new object at the (already copied) root: a to-space
	// address, so the no-from-space-pointers property of new objects
	// holds by construction.
	e.h.SetPtr(n, 0, e.roots[0], word.NilLSN)
	e.c.Finish()
	if e.c.Active() {
		t.Fatal("Finish must complete the collection")
	}
}

func TestAtomicCollectionLogsFlipCopyScanEnd(t *testing.T) {
	e := newEnv(t, Config{}, 8192)
	rng := rand.New(rand.NewSource(42))
	model, roots := buildGraph(t, e, rng, 40)
	_ = model
	_ = roots
	e.c.StartCollection(word.NilAddr)
	for e.c.Active() {
		e.c.Step()
	}
	var flips, copies, scans, ends int
	e.log.Scan(1, false, func(_ word.LSN, r wal.Record) bool {
		switch r.(type) {
		case wal.FlipRec:
			flips++
		case wal.CopyRec:
			copies++
		case wal.ScanRec:
			scans++
		case wal.GCEndRec:
			ends++
		}
		return true
	})
	if flips != 1 || ends != 1 {
		t.Fatalf("flips=%d ends=%d, want 1 and 1", flips, ends)
	}
	if copies == 0 || scans == 0 {
		t.Fatalf("copies=%d scans=%d, want > 0", copies, scans)
	}
	if uint64(copies) != e.c.Met.CopiedObjs.Load() {
		t.Fatalf("copy records (%d) must match copied objects (%d)", copies, e.c.Met.CopiedObjs.Load())
	}
}

func TestCopyRecordCarriesOverwrittenDescriptor(t *testing.T) {
	e := newEnv(t, Config{Mode: StopTheWorld}, 4096)
	a := e.alloc(t, 9, 2, 3)
	d := e.h.Descriptor(a)
	e.roots = []word.Addr{a}
	e.c.StartCollection(word.NilAddr)
	found := false
	e.log.Scan(1, false, func(_ word.LSN, r wal.Record) bool {
		if c, ok := r.(wal.CopyRec); ok && c.From == a {
			found = true
			if heap.Descriptor(c.Descriptor) != d {
				t.Fatalf("copy record descriptor %#x, want %#x", c.Descriptor, uint64(d))
			}
			if c.SizeWords != d.SizeWords() {
				t.Fatal("copy record size mismatch")
			}
		}
		return true
	})
	if !found {
		t.Fatal("no copy record for the root object")
	}
}

func TestForwardingPointerWrittenInFromSpace(t *testing.T) {
	e := newEnv(t, Config{}, 4096)
	a := e.alloc(t, 1, 0, 1)
	e.roots = []word.Addr{a}
	e.c.StartCollection(word.NilAddr)
	d := e.h.Descriptor(a) // direct (unbarriered) read of from-space
	if !d.Forwarded() || d.ForwardAddr() != e.roots[0] {
		t.Fatal("from-space copy must hold a forwarding pointer to the to-space copy")
	}
	e.c.Finish()
}

func TestOnCopyHookFires(t *testing.T) {
	e := newEnv(t, Config{Mode: StopTheWorld}, 4096)
	a := e.alloc(t, 1, 1, 1)
	b := e.alloc(t, 2, 0, 1)
	e.h.SetPtr(a, 0, b, word.NilLSN)
	e.roots = []word.Addr{a}
	var batches []word.Moves
	e.c.SetHooks(Hooks{
		ForEachRoot: e.forEachRoot,
		Relocate:    func(ms word.Moves) { batches = append(batches, slices.Clone(ms)) },
	})
	e.c.StartCollection(word.NilAddr)
	// One stop-the-world collection is one entry, so one batch: both copies,
	// sorted by source, the root's landing where the root slot now points.
	if len(batches) != 1 || len(batches[0]) != 2 || batches[0][0].From != a || batches[0][1].From != b {
		t.Fatalf("Relocate batches = %v, want one batch of the two copies sorted by source", batches)
	}
	if m := batches[0][0]; m.To != e.roots[0] || m.Words != 3 {
		t.Fatalf("move %+v disagrees with the translated root %v", m, e.roots[0])
	}
}

func TestRootObjectTranslationAndFlipRecord(t *testing.T) {
	e := newEnv(t, Config{Mode: StopTheWorld}, 4096)
	rootObj := e.alloc(t, 5, 0, 2)
	newRoot := e.c.StartCollection(rootObj)
	if newRoot == rootObj {
		t.Fatal("root object must move")
	}
	if got := e.loadData(newRoot, 0); got != 5 {
		t.Fatal("root object contents lost")
	}
	var flip wal.FlipRec
	e.log.Scan(1, false, func(_ word.LSN, r wal.Record) bool {
		if f, ok := r.(wal.FlipRec); ok {
			flip = f
			return false
		}
		return true
	})
	if flip.RootObjFrom != rootObj || flip.RootObjTo != newRoot {
		t.Fatalf("flip record roots %v→%v, want %v→%v", flip.RootObjFrom, flip.RootObjTo, rootObj, newRoot)
	}
}

func TestRepeatedCollectionsAlternateSpaces(t *testing.T) {
	e := newEnv(t, Config{Mode: StopTheWorld}, 4096)
	a := e.alloc(t, 1, 0, 1)
	e.roots = []word.Addr{a}
	s0 := e.c.CurrentIndex()
	e.c.StartCollection(word.NilAddr)
	if e.c.CurrentIndex() == s0 {
		t.Fatal("collection must switch semispaces")
	}
	e.c.StartCollection(word.NilAddr)
	if e.c.CurrentIndex() != s0 {
		t.Fatal("second collection must switch back")
	}
	if got := e.loadData(e.roots[0], 0); got != 1 {
		t.Fatal("object lost across two collections")
	}
}

func TestFillerPlantedOnFrontierTrap(t *testing.T) {
	e := newEnv(t, Config{}, 8192)
	a := e.alloc(t, 1, 0, 1)
	e.roots = []word.Addr{a}
	e.c.StartCollection(word.NilAddr)
	// The root copy landed on the first to-space page; trap it: the
	// frontier is on that page, so a filler must be planted.
	e.loadData(e.roots[0], 0)
	if e.c.Met.FillerWords.Load() == 0 {
		t.Fatal("expected a filler object when scanning the frontier page")
	}
	// The to-space stays parseable and the collection still terminates.
	e.c.Finish()
	verify := e.loadData(e.roots[0], 0)
	if verify != 1 {
		t.Fatal("object corrupted by filler")
	}
}

func TestGCStateSnapshotRestoreMidCollection(t *testing.T) {
	e := newEnv(t, Config{}, 8192)
	rng := rand.New(rand.NewSource(7))
	model, roots := buildGraph(t, e, rng, 60)
	e.c.StartCollection(word.NilAddr)
	e.c.Step() // some progress
	st := e.c.State()
	if !st.Active || st.Epoch != 1 {
		t.Fatalf("state = %+v", st)
	}
	cur := e.c.CurrentIndex()
	// Build a second collector (same memory) and restore.
	c2 := New(e.c.cfg, e.mem, e.h, e.log, e.c.spaces[0].Lo, e.c.spaces[1].Hi)
	c2.SetHooks(Hooks{ForEachRoot: e.forEachRoot})
	e.mem.SetTrapHandler(c2.Trap)
	c2.Restore(st, cur)
	e.c = c2
	for e.c.Active() {
		e.c.Step()
	}
	verifyGraph(t, e, model, roots)
}

func TestVolatileCollectorBasics(t *testing.T) {
	disk := storage.NewDisk(ps)
	log := wal.NewManager(storage.NewLog(0))
	mem := vm.New(vm.Config{PageSize: ps}, disk, log)
	h := heap.New(mem)
	v := NewVolatile(mem, h, log, ps, ps+4096)
	var roots []word.Addr
	v.SetHooks(VolatileHooks{
		ForEachRoot: func(visit func(get func() word.Addr, set func(word.Addr))) {
			for i := range roots {
				i := i
				visit(func() word.Addr { return roots[i] }, func(a word.Addr) { roots[i] = a })
			}
		},
	})
	mk := func(id uint64, nptrs int) word.Addr {
		d := heap.NewDescriptor(1, nptrs, 1)
		a, ok := v.Alloc(d.SizeWords())
		if !ok {
			t.Fatal("volatile alloc failed")
		}
		h.SetDescriptor(a, d, word.NilLSN)
		h.SetData(a, d, 0, id, word.NilLSN)
		return a
	}
	a := mk(1, 1)
	b := mk(2, 0)
	mk(3, 0) // garbage
	h.SetPtr(a, 0, b, word.NilLSN)
	roots = []word.Addr{a}
	v.Collect()
	na := roots[0]
	if h.Data(na, h.Descriptor(na), 0) != 1 {
		t.Fatal("root lost")
	}
	nb := h.Ptr(na, 0)
	if h.Data(nb, h.Descriptor(nb), 0) != 2 {
		t.Fatal("child lost")
	}
	if v.Met.CopiedObjs.Load() != 2 {
		t.Fatalf("copied %d, want 2 (garbage must die)", v.Met.CopiedObjs.Load())
	}
	// Only the volatile-flip marker is logged.
	kinds := map[wal.Type]int{}
	log.Scan(1, false, func(_ word.LSN, r wal.Record) bool { kinds[r.Type()]++; return true })
	if kinds[wal.TVFlip] != 1 || len(kinds) != 1 {
		t.Fatalf("log kinds = %v, want only one vflip", kinds)
	}
}

func TestVolatileMovesNewlyStableToStableArea(t *testing.T) {
	disk := storage.NewDisk(ps)
	log := wal.NewManager(storage.NewLog(0))
	mem := vm.New(vm.Config{PageSize: ps}, disk, log)
	h := heap.New(mem)
	stableLo := word.Addr(ps)
	stableSpace := heap.NewSpace(stableLo, stableLo+2048)
	volLo := stableLo + 4096
	v := NewVolatile(mem, h, log, volLo, volLo+4096)

	// A stable object S with one slot pointing at volatile object O,
	// which has the AS bit (newly stable), which points at volatile P
	// (also AS: the closure is stabilized together).
	sAddr, _ := stableSpace.AllocLow(2)
	h.SetDescriptor(sAddr, heap.NewDescriptor(2, 1, 0), 1)
	mkVol := func(id uint64, nptrs int, as bool) word.Addr {
		d := heap.NewDescriptor(1, nptrs, 1).WithAS(as)
		a, _ := v.Alloc(d.SizeWords())
		h.SetDescriptor(a, d, word.NilLSN)
		h.SetData(a, d.WithAS(false), 0, id, word.NilLSN)
		return a
	}
	o := mkVol(10, 1, true)
	p := mkVol(11, 0, true)
	q := mkVol(12, 0, false) // plain volatile, reachable from a root
	h.SetPtr(o, 0, p, word.NilLSN)
	h.SetPtr(sAddr, 0, o, 1)

	roots := []word.Addr{q}
	var relocated word.Moves
	var slotFixes []word.Addr
	v.SetHooks(VolatileHooks{
		ForEachRoot: func(visit func(get func() word.Addr, set func(word.Addr))) {
			for i := range roots {
				i := i
				visit(func() word.Addr { return roots[i] }, func(a word.Addr) { roots[i] = a })
			}
		},
		StableSlots: func() []word.Addr { return []word.Addr{sAddr + word.Addr(heap.PtrOffset(0))} },
		AllocStable: func(sz int) word.Addr {
			a, ok := stableSpace.AllocLow(sz)
			if !ok {
				t.Fatal("stable space full")
			}
			return a
		},
		Relocate:          func(ms word.Moves) { relocated = append(relocated, ms...) },
		OnStableSlotFixed: func(slot, newPtr word.Addr, still bool) { slotFixes = append(slotFixes, slot) },
	})
	n := v.Collect()
	if n != 2 {
		t.Fatalf("moved %d objects, want 2", n)
	}
	// S's slot now points into the stable area.
	no := h.Ptr(sAddr, 0)
	if v.InArea(no) {
		t.Fatalf("slot still points into the volatile area: %v", no)
	}
	if d := h.Descriptor(no); d.AS() || d.LS() {
		t.Fatal("moved object must have tracking bits cleared")
	}
	if h.Data(no, h.Descriptor(no), 0) != 10 {
		t.Fatal("moved object contents wrong")
	}
	np := h.Ptr(no, 0)
	if v.InArea(np) {
		t.Fatal("moved object's pointer must be fixed to the stable copy")
	}
	if h.Data(np, h.Descriptor(np), 0) != 11 {
		t.Fatal("second moved object contents wrong")
	}
	// The plain volatile object q survived in the volatile area.
	if !v.InArea(roots[0]) {
		t.Fatal("plain volatile object must stay volatile")
	}
	// The cycle is one V2SCopy record — both moves, the translated slot
	// of O and the fix of S's slot — and its VFlip.
	kinds := map[wal.Type]int{}
	var cycle wal.V2SCopyRec
	log.Scan(1, false, func(_ word.LSN, r wal.Record) bool {
		kinds[r.Type()]++
		if mv, ok := r.(wal.V2SCopyRec); ok {
			cycle = mv
		}
		return true
	})
	if want := map[wal.Type]int{wal.TV2SCopy: 1, wal.TVFlip: 1}; !reflect.DeepEqual(kinds, want) {
		t.Fatalf("log kinds = %v, want %v", kinds, want)
	}
	if len(cycle.From) != 2 || len(cycle.Fixes) != 1 || cycle.Fixes[0].Addr != sAddr+word.Addr(heap.PtrOffset(0)) || cycle.Fixes[0].NewPtr != no {
		t.Fatalf("the cycle's record moves %v and fixes %v: want O and P, and S's slot → %v", cycle.From, cycle.Fixes, no)
	}
	// The batch carries the two stable moves and q's plain copy alike.
	moved := 0
	for _, m := range relocated {
		if stableSpace.Contains(m.To) {
			moved++
		}
	}
	if moved != 2 || len(relocated) != 3 || len(slotFixes) == 0 {
		t.Fatalf("hooks: %d moves (%d into the stable area), slotFixes=%d", len(relocated), moved, len(slotFixes))
	}
}

func TestVolatileResetEmptiesBothSpaces(t *testing.T) {
	disk := storage.NewDisk(ps)
	log := wal.NewManager(storage.NewLog(0))
	mem := vm.New(vm.Config{PageSize: ps}, disk, log)
	h := heap.New(mem)
	v := NewVolatile(mem, h, log, ps, ps+2048)
	v.Alloc(8)
	v.Reset()
	if v.Current().CopyPtr != v.Current().Lo {
		t.Fatal("reset must empty the current space")
	}
	_ = h
}

func TestPauseMeasurement(t *testing.T) {
	e := newEnv(t, Config{}, 8192)
	rng := rand.New(rand.NewSource(3))
	buildGraph(t, e, rng, 40)
	e.c.StartCollection(word.NilAddr)
	for e.c.Active() {
		e.c.Step()
	}
	flip, step := e.c.Met.Flip.Snapshot(), e.c.Met.Step.Snapshot()
	if flip.Count != 1 || step.Count == 0 {
		t.Fatalf("pause histograms: flip=%d steps=%d", flip.Count, step.Count)
	}
	if flip.Max == 0 || step.Sum == 0 {
		t.Fatalf("pause histograms recorded zero time: flip max=%d step sum=%d", flip.Max, step.Sum)
	}
}
