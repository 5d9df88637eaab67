package gc

import (
	"reflect"
	"strings"
	"testing"

	"stableheap/internal/heap"
	"stableheap/internal/storage"
	"stableheap/internal/vm"
	"stableheap/internal/wal"
	"stableheap/internal/word"
)

// volEnv is a bare VolatileCollector with a nursery, a stable space to
// move into, and the root sets the core would supply.
type volEnv struct {
	t           *testing.T
	h           *heap.Heap
	log         *wal.Manager
	v           *VolatileCollector
	stable      *heap.Space
	roots       []word.Addr // volatile root slots
	stableSlots []word.Addr // the stable→volatile remembered set
}

func newVolEnv(t *testing.T) *volEnv {
	disk := storage.NewDisk(ps)
	log := wal.NewManager(storage.NewLog(0))
	mem := vm.New(vm.Config{PageSize: ps}, disk, log)
	e := &volEnv{t: t, h: heap.New(mem), log: log}
	e.stable = heap.NewSpace(ps, ps+2048)
	volLo := word.Addr(ps + 4096)
	e.v = NewVolatile(mem, e.h, log, volLo, volLo+8192)
	e.v.SetNursery(volLo+8192, volLo+8192+4096)
	e.v.SetHooks(VolatileHooks{
		ForEachRoot: func(visit func(get func() word.Addr, set func(word.Addr))) {
			for i := range e.roots {
				i := i
				visit(func() word.Addr { return e.roots[i] }, func(a word.Addr) { e.roots[i] = a })
			}
		},
		StableSlots: func() []word.Addr { return e.stableSlots },
		AllocStable: func(size int) word.Addr {
			a, ok := e.stable.AllocLow(size)
			if !ok {
				t.Fatal("stable space full")
			}
			return a
		},
	})
	return e
}

// nursery carves one object's run at the nursery frontier, as a core
// allocation chunk the object fills exactly would be carved.
func (e *volEnv) nursery(sizeWords int) (word.Addr, bool) {
	a, _, ok := e.v.CarveNursery(sizeWords, sizeWords)
	if ok {
		e.v.CountNursery(sizeWords)
	}
	return a, ok
}

// obj writes an object with nptrs nil pointer slots and id in its one data
// word at an address obtained from alloc.
func (e *volEnv) obj(alloc func(int) (word.Addr, bool), id uint64, nptrs int, as bool) word.Addr {
	d := heap.NewDescriptor(1, nptrs, 1)
	a, ok := alloc(d.SizeWords())
	if !ok {
		e.t.Fatalf("no room for object %d", id)
	}
	e.h.SetDescriptor(a, d.WithAS(as), word.NilLSN)
	for i := 0; i < nptrs; i++ {
		e.h.SetPtr(a, i, word.NilAddr, word.NilLSN)
	}
	e.h.SetData(a, d, 0, id, word.NilLSN)
	return a
}

// chain links objects id, id+1, … id+n-1 through slot 0 and returns the
// head.
func (e *volEnv) chain(alloc func(int) (word.Addr, bool), id uint64, n int) word.Addr {
	var head, prev word.Addr
	for i := 0; i < n; i++ {
		a := e.obj(alloc, id+uint64(i), 1, false)
		if i == 0 {
			head = a
		} else {
			e.h.SetPtr(prev, 0, a, word.NilLSN)
		}
		prev = a
	}
	return head
}

// ids follows slot 0 from a and returns the ids met, checking on the way
// that every object lies in want.
func (e *volEnv) ids(a word.Addr, want *heap.Space) []uint64 {
	var out []uint64
	for ; !a.IsNil(); a = e.h.Ptr(a, 0) {
		if !want.Contains(a) {
			e.t.Fatalf("object at %v lies outside [%v,%v)", a, want.Lo, want.Hi)
		}
		d := e.h.Descriptor(a)
		out = append(out, e.h.Data(a, d, 0))
		if d.NPtrs() == 0 {
			break
		}
	}
	return out
}

func (e *volEnv) wantIDs(a word.Addr, in *heap.Space, first uint64, n int) {
	e.t.Helper()
	want := make([]uint64, n)
	for i := range want {
		want[i] = first + uint64(i)
	}
	if got := e.ids(a, in); !reflect.DeepEqual(got, want) {
		e.t.Fatalf("chain = %v, want %v", got, want)
	}
}

func (e *volEnv) logKinds() map[wal.Type]int {
	kinds := map[wal.Type]int{}
	e.log.Scan(1, false, func(_ word.LSN, r wal.Record) bool { kinds[r.Type()]++; return true })
	return kinds
}

func empty(s *heap.Space) bool { return s.CopyPtr == s.Lo && s.AllocPtr == s.Hi }

// TestCycleFromSets drives the one evacuation cycle over its four from-sets
// on a bare collector: these paths are otherwise reached only through core.
func TestCycleFromSets(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, e *volEnv)
	}{
		{"full with nursery", func(t *testing.T, e *volEnv) {
			// An aged chain whose tail points into a nursery chain, plus
			// garbage in both spaces.
			old := e.v.Current()
			aged := e.chain(e.v.Alloc, 10, 3)
			young := e.chain(e.nursery, 13, 2)
			e.h.SetPtr(e.h.Ptr(e.h.Ptr(aged, 0), 0), 0, young, word.NilLSN)
			e.obj(e.v.Alloc, 98, 0, false)
			e.obj(e.nursery, 99, 0, false)
			e.roots = []word.Addr{aged}
			if moved := e.v.Collect(); moved != 0 {
				t.Fatalf("moved %d, want 0", moved)
			}
			e.wantIDs(e.roots[0], e.v.Current(), 10, 5)
			if s := &e.v.Met; s.CopiedObjs.Load() != 5 || s.Nursery.PromotedObjs.Load() != 0 {
				t.Fatalf("copied %d promoted %d, want 5 and 0", s.CopiedObjs.Load(), s.Nursery.PromotedObjs.Load())
			}
			if e.v.Current() == old || !empty(old) || !empty(e.v.Nursery()) {
				t.Fatal("from-set (old semispace and nursery) not retired")
			}
			if k := e.logKinds(); k[wal.TVFlip] != 1 || len(k) != 1 {
				t.Fatalf("log kinds = %v, want one vflip only", k)
			}
		}},
		{"flip, 3-word quanta, finish", func(t *testing.T, e *volEnv) {
			// A wide object (8 leaves) exercises the mid-object resume, a
			// chain the object-to-object one.
			wide := e.obj(e.v.Alloc, 20, 8, false)
			for i := 0; i < 8; i++ {
				e.h.SetPtr(wide, i, e.obj(e.v.Alloc, 30+uint64(i), 0, false), word.NilLSN)
			}
			e.roots = []word.Addr{wide, e.chain(e.v.Alloc, 40, 6)}
			old := e.v.Current()
			e.v.StartConcurrent()
			if k := e.logKinds(); k[wal.TVFlip] != 1 {
				t.Fatalf("log kinds after the flip = %v: the flip is the logged collection", k)
			}
			if got := e.v.Met.CopiedObjs.Load(); got != 2 {
				t.Fatalf("flip copied %d objects, want the 2 roots", got)
			}
			// A mutator load mid-scan transports its from-space target.
			tail := e.h.Ptr(e.h.Ptr(e.roots[1], 0), 0)
			if !e.v.ConcFromContains(tail) || e.v.ConcFromContains(e.v.Load(tail)) {
				t.Fatal("transport did not forward a from-space pointer")
			}
			quanta, midObject := 0, false
			for e.v.ScanQuantum(3) {
				quanta++
				midObject = midObject || e.v.major.graySlot > 0
			}
			if quanta < 8 || !midObject {
				t.Fatalf("%d quanta, resumed mid-object: %v; want ≥ 8 and true", quanta, midObject)
			}
			e.v.FinishConcurrent()
			if e.v.ConcurrentActive() || !empty(old) {
				t.Fatal("from-space not retired")
			}
			for i := 0; i < 8; i++ {
				leaf := e.h.Ptr(e.roots[0], i)
				if !e.v.Current().Contains(leaf) || e.h.Data(leaf, e.h.Descriptor(leaf), 0) != 30+uint64(i) {
					t.Fatalf("leaf %d lost", i)
				}
			}
			e.wantIDs(e.roots[1], e.v.Current(), 40, 6)
			if k := e.logKinds(); len(k) != 1 {
				t.Fatalf("log kinds = %v: the scan must be unlogged", k)
			}
		}},
		{"minor while a major is parked", func(t *testing.T, e *volEnv) {
			e.roots = []word.Addr{e.chain(e.v.Alloc, 50, 6), word.NilAddr}
			e.v.StartConcurrent()
			e.v.ScanQuantum(3)
			gray := append([]word.Addr(nil), e.v.major.gray...)
			graySlot := e.v.major.graySlot
			if len(gray) == 0 {
				t.Fatal("test needs a parked scan with work left")
			}
			// Born after the flip: a plain nursery chain, and a newly
			// stable nursery object a stable slot points at.
			e.roots[1] = e.chain(e.nursery, 60, 3)
			s, _ := e.stable.AllocLow(2)
			e.h.SetDescriptor(s, heap.NewDescriptor(2, 1, 0), 1)
			e.h.SetPtr(s, 0, e.obj(e.nursery, 70, 0, true), 1)
			e.stableSlots = []word.Addr{s + word.Addr(heap.PtrOffset(0))}
			highBefore := e.v.Current().AllocPtr
			if moved := e.v.CollectNursery(nil); moved != 1 {
				t.Fatalf("moved %d, want the one newly stable object", moved)
			}
			if !reflect.DeepEqual(e.v.major.gray, gray) || e.v.major.graySlot != graySlot {
				t.Fatal("the minor touched the parked cycle's gray queue")
			}
			high := heap.NewSpace(e.v.Current().AllocPtr, highBefore)
			e.wantIDs(e.roots[1], high, 60, 3) // promotions land high
			if st := &e.v.Met; st.Nursery.PromotedObjs.Load() != 3 || st.MovedObjs.Load() != 1 || !empty(e.v.Nursery()) {
				t.Fatalf("promoted %d moved %d, nursery empty %v", st.Nursery.PromotedObjs.Load(), st.MovedObjs.Load(), empty(e.v.Nursery()))
			}
			if p := e.h.Ptr(s, 0); !e.stable.Contains(p) || e.h.Data(p, e.h.Descriptor(p), 0) != 70 {
				t.Fatal("newly stable nursery object did not move into the stable area")
			}
			e.v.FinishConcurrent()
			e.wantIDs(e.roots[0], e.v.Current(), 50, 6)
			e.wantIDs(e.roots[1], high, 60, 3)
		}},
		{"post-recovery", func(t *testing.T, e *volEnv) {
			// Redo re-materialized two AS objects, one per semispace; the
			// stable slot reaches the first, which points at the second.
			s, _ := e.stable.AllocLow(2)
			e.h.SetDescriptor(s, heap.NewDescriptor(2, 1, 0), 1)
			a := e.obj(e.v.spaces[0].AllocLow, 80, 1, true)
			b := e.obj(e.v.spaces[1].AllocLow, 81, 0, true)
			e.h.SetPtr(a, 0, b, word.NilLSN)
			e.h.SetPtr(s, 0, a, 1)
			e.stableSlots = []word.Addr{s + word.Addr(heap.PtrOffset(0))}
			if moved := e.v.CollectRecovered(); moved != 2 {
				t.Fatalf("moved %d, want 2", moved)
			}
			e.wantIDs(e.h.Ptr(s, 0), e.stable, 80, 2)
			if !empty(e.v.spaces[0]) || !empty(e.v.spaces[1]) {
				t.Fatal("volatile area not reset")
			}
			// Anything else reachable there is a recovery bug.
			e.h.SetPtr(s, 0, e.obj(e.v.Alloc, 82, 0, false), 1)
			defer func() {
				if r := recover(); r == nil || !strings.Contains(r.(string), "non-stable object") {
					t.Fatalf("recovered %v, want the non-stable-object panic", r)
				}
			}()
			e.v.CollectRecovered()
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { c.run(t, newVolEnv(t)) })
	}
}
