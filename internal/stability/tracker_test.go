package stability

import (
	"testing"

	"stableheap/internal/heap"
	"stableheap/internal/lock"
	"stableheap/internal/storage"
	"stableheap/internal/tx"
	"stableheap/internal/vm"
	"stableheap/internal/wal"
	"stableheap/internal/word"
)

const ps = 256

// rig is a minimal environment: a "volatile area" of [0x1000, 0x8000).
type rig struct {
	mem   *vm.Store
	h     *heap.Heap
	log   *wal.Manager
	locks *lock.Manager
	txm   *tx.Manager
	tr    *Tracker
	ls    map[word.Addr]bool
	next  word.Addr
}

const volLo, volHi = word.Addr(0x1000), word.Addr(0x8000)

func newRig() *rig {
	disk := storage.NewDisk(ps)
	log := wal.NewManager(storage.NewLog(0))
	mem := vm.New(vm.Config{PageSize: ps}, disk, log)
	h := heap.New(mem)
	locks := lock.NewManager(0)
	inVol := func(a word.Addr) bool { return a >= volLo && a < volHi }
	txm := tx.NewManager(log, mem, h, locks, tx.Env{VolatilePred: inVol})
	r := &rig{mem: mem, h: h, log: log, locks: locks, txm: txm,
		ls: make(map[word.Addr]bool), next: volLo}
	r.tr = New(h, txm, locks, Env{
		InVolatile: inVol,
		AddLS:      func(a word.Addr, _ int) { r.ls[a] = true },
	})
	return r
}

// alloc lays a volatile object down by hand.
func (r *rig) alloc(nptrs, ndata int, val uint64) word.Addr {
	d := heap.NewDescriptor(1, nptrs, ndata)
	a := r.next
	r.next = a.Add(d.SizeWords())
	r.h.SetDescriptor(a, d, word.NilLSN)
	if ndata > 0 {
		r.h.SetData(a, d, 0, val, word.NilLSN)
	}
	return a
}

func (r *rig) handle(t *tx.Tx, a word.Addr) *tx.Handle { return r.txm.Register(t, a) }

func TestTrackStabilizesClosure(t *testing.T) {
	r := newRig()
	// a → b → c, all volatile.
	c := r.alloc(0, 1, 3)
	b := r.alloc(1, 1, 2)
	a := r.alloc(1, 1, 1)
	r.h.SetPtr(a, 0, b, word.NilLSN)
	r.h.SetPtr(b, 0, c, word.NilLSN)
	tr := r.txm.Begin()
	if err := r.tr.Track(tr, []*tx.Handle{r.handle(tr, a)}, nil); err != nil {
		t.Fatal(err)
	}
	for _, addr := range []word.Addr{a, b, c} {
		if !r.h.Descriptor(addr).AS() {
			t.Fatalf("object %v missing AS bit", addr)
		}
		if !r.ls[addr] {
			t.Fatalf("object %v missing from LS", addr)
		}
	}
	// Log: the three objects lie end to end (c, b, a), so one base record
	// carries them, and the commit record, chained directly after it,
	// closes the batch.
	r.log.Force(r.txm.PrepareCommit(tr))
	r.txm.FinishCommit(tr)
	var recs []wal.Record
	r.log.Scan(1, false, func(_ word.LSN, rec wal.Record) bool {
		recs = append(recs, rec)
		return true
	})
	if len(recs) != 2 || recs[0].Type() != wal.TBase || recs[1].Type() != wal.TCommit {
		t.Fatalf("log holds %v, want one base record then the commit record", recs)
	}
	for typ, want := range map[wal.Type]int64{wal.TBase: 1, wal.TCommit: 1, wal.TComplete: 0, wal.TEnd: 0} {
		if n, _ := r.log.TypeStats(typ); n != want {
			t.Errorf("%d %v records appended, want %d", n, typ, want)
		}
	}
	if base := recs[0].(wal.BaseRec); base.Addr != c || len(base.Object) != int(a.Add(3)-c) {
		t.Fatalf("base run at %v of %d bytes, want [%v, %v)", base.Addr, len(base.Object), c, a.Add(3))
	}
	if r.tr.Met.Objects.Load() != 3 || r.tr.Met.Closure.Snapshot().Max != 3 {
		t.Fatalf("objects %d, largest closure %d", r.tr.Met.Objects.Load(), r.tr.Met.Closure.Snapshot().Max)
	}
}

func TestTrackSharedSubgraphOnlyOnce(t *testing.T) {
	r := newRig()
	shared := r.alloc(0, 1, 9)
	a := r.alloc(1, 1, 1)
	b := r.alloc(1, 1, 2)
	r.h.SetPtr(a, 0, shared, word.NilLSN)
	r.h.SetPtr(b, 0, shared, word.NilLSN)
	tr := r.txm.Begin()
	if err := r.tr.Track(tr, []*tx.Handle{r.handle(tr, a), r.handle(tr, b)}, nil); err != nil {
		t.Fatal(err)
	}
	if r.tr.Met.Objects.Load() != 3 {
		t.Fatalf("objects = %d, want 3 (shared tracked once)", r.tr.Met.Objects.Load())
	}
	if r.tr.Met.AlreadyAS.Load() != 1 {
		t.Fatalf("AlreadyAS = %d, want 1", r.tr.Met.AlreadyAS.Load())
	}
}

func TestTrackCycle(t *testing.T) {
	r := newRig()
	a := r.alloc(1, 1, 1)
	b := r.alloc(1, 1, 2)
	r.h.SetPtr(a, 0, b, word.NilLSN)
	r.h.SetPtr(b, 0, a, word.NilLSN)
	tr := r.txm.Begin()
	if err := r.tr.Track(tr, []*tx.Handle{r.handle(tr, a)}, nil); err != nil {
		t.Fatal(err)
	}
	if r.tr.Met.Objects.Load() != 2 {
		t.Fatalf("cycle tracked %d objects, want 2", r.tr.Met.Objects.Load())
	}
}

func TestTrackStopsAtStableBoundary(t *testing.T) {
	r := newRig()
	// a (volatile) → s (outside the volatile area: already stable).
	a := r.alloc(1, 1, 1)
	s := word.Addr(0x9000) // outside
	r.h.SetDescriptor(s, heap.NewDescriptor(1, 0, 1), word.NilLSN)
	r.h.SetPtr(a, 0, s, word.NilLSN)
	tr := r.txm.Begin()
	if err := r.tr.Track(tr, []*tx.Handle{r.handle(tr, a)}, nil); err != nil {
		t.Fatal(err)
	}
	if r.tr.Met.Objects.Load() != 1 {
		t.Fatalf("tracked %d, want 1 (stable targets skipped)", r.tr.Met.Objects.Load())
	}
}

func TestTrackBlockedByOtherWriterFails(t *testing.T) {
	r := newRig()
	a := r.alloc(0, 1, 1)
	// Another active transaction write-holds a.
	other := r.txm.Begin()
	if err := r.locks.Acquire(other.ID(), a, lock.Write); err != nil {
		t.Fatal(err)
	}
	tr := r.txm.Begin()
	if err := r.tr.Track(tr, []*tx.Handle{r.handle(tr, a)}, nil); err != lock.ErrTimeout {
		t.Fatalf("expected lock timeout, got %v", err)
	}
	if r.h.Descriptor(a).AS() {
		t.Fatal("blocked object must not be stabilized")
	}
	if r.tr.Met.LockWaits.Load() != 1 {
		t.Fatal("lock wait not counted")
	}
}

func TestTrackOwnWriteLockOK(t *testing.T) {
	r := newRig()
	a := r.alloc(0, 1, 1)
	tr := r.txm.Begin()
	// The committing transaction itself holds the write lock — that is
	// the normal case (it wrote the object before publishing it).
	if err := r.locks.Acquire(tr.ID(), a, lock.Write); err != nil {
		t.Fatal(err)
	}
	if err := r.tr.Track(tr, []*tx.Handle{r.handle(tr, a)}, nil); err != nil {
		t.Fatal(err)
	}
	if !r.h.Descriptor(a).AS() {
		t.Fatal("own-locked object must stabilize")
	}
}

func TestSecondTrackerSkipsStabilized(t *testing.T) {
	r := newRig()
	a := r.alloc(0, 1, 1)
	t1 := r.txm.Begin()
	if err := r.tr.Track(t1, []*tx.Handle{r.handle(t1, a)}, nil); err != nil {
		t.Fatal(err)
	}
	r.txm.PrepareCommit(t1)
	r.txm.FinishCommit(t1)
	t2 := r.txm.Begin()
	if err := r.tr.Track(t2, []*tx.Handle{r.handle(t2, a)}, nil); err != nil {
		t.Fatal(err)
	}
	if r.tr.Met.Objects.Load() != 1 {
		t.Fatal("second tracker must not re-stabilize")
	}
	// Only one base record exists.
	bases := 0
	r.log.Scan(1, false, func(_ word.LSN, rec wal.Record) bool {
		if rec.Type() == wal.TBase {
			bases++
		}
		return true
	})
	if bases != 1 {
		t.Fatalf("bases = %d", bases)
	}
}

func TestBaseImageCarriesASBit(t *testing.T) {
	r := newRig()
	a := r.alloc(0, 1, 42)
	tr := r.txm.Begin()
	if err := r.tr.Track(tr, []*tx.Handle{r.handle(tr, a)}, nil); err != nil {
		t.Fatal(err)
	}
	var base wal.BaseRec
	r.log.Scan(1, false, func(_ word.LSN, rec wal.Record) bool {
		if b, ok := rec.(wal.BaseRec); ok {
			base = b
		}
		return true
	})
	d := heap.Descriptor(word.GetWord(base.Object, 0))
	if !d.AS() || !d.LS() {
		t.Fatal("base image must carry the AS and LS bits so redo restores them")
	}
	if word.GetWord(base.Object, 8) != 42 {
		t.Fatal("base image value wrong")
	}
}

func TestBaseStampsPageLSN(t *testing.T) {
	r := newRig()
	a := r.alloc(0, 1, 1)
	tr := r.txm.Begin()
	if err := r.tr.Track(tr, []*tx.Handle{r.handle(tr, a)}, nil); err != nil {
		t.Fatal(err)
	}
	if r.mem.PageLSN(a.Page(ps)) == word.NilLSN {
		t.Fatal("stabilized object's page must carry the base record's LSN")
	}
	if len(r.mem.DirtyPages()) == 0 {
		t.Fatal("page must enter the dirty page table")
	}
}

func TestEmptyTrackNoRecords(t *testing.T) {
	r := newRig()
	tr := r.txm.Begin()
	if err := r.tr.Track(tr, nil, nil); err != nil {
		t.Fatal(err)
	}
	if r.tr.Met.Batches.Load() != 0 {
		t.Fatal("empty track must not count a batch")
	}
}
